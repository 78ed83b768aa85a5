"""Tests for latency and bandwidth models."""

import pytest

from repro.net.latency import (
    BandwidthModel,
    FixedLatencyModel,
    LANLatencyModel,
    WANLatencyModel,
    latency_model_for,
)
from repro.sim.rng import DeterministicRNG


class TestLANModel:
    def test_self_delay_is_zero(self):
        model = LANLatencyModel()
        assert model.delay(3, 3, DeterministicRNG(0)) == 0.0

    def test_delay_close_to_base(self):
        model = LANLatencyModel(base_delay=0.0005)
        rng = DeterministicRNG(1)
        samples = [model.delay(0, 1, rng) for _ in range(500)]
        assert all(s > 0 for s in samples)
        assert 0.0003 < sum(samples) / len(samples) < 0.0009

    def test_region_is_local(self):
        assert LANLatencyModel().region_of(5) == "local"


class TestWANModel:
    def test_round_robin_region_assignment(self):
        model = WANLatencyModel()
        assert model.region_of(0) != model.region_of(1)
        assert model.region_of(0) == model.region_of(4)

    def test_same_region_is_fast(self):
        model = WANLatencyModel()
        assert model.base_delay(0, 4) == pytest.approx(0.0005)

    def test_cross_region_is_slower_than_same_region(self):
        model = WANLatencyModel()
        assert model.base_delay(0, 2) > model.base_delay(0, 4)

    def test_matrix_symmetry(self):
        model = WANLatencyModel()
        for src in range(4):
            for dst in range(4):
                assert model.base_delay(src, dst) == model.base_delay(dst, src)

    def test_self_delay_zero(self):
        model = WANLatencyModel()
        assert model.delay(2, 2, DeterministicRNG(0)) == 0.0

    def test_jitter_produces_variation(self):
        model = WANLatencyModel()
        rng = DeterministicRNG(3)
        samples = {round(model.delay(0, 1, rng), 9) for _ in range(20)}
        assert len(samples) > 1


class TestFixedModel:
    def test_constant_delay(self):
        model = FixedLatencyModel(0.02)
        rng = DeterministicRNG(0)
        assert model.delay(0, 1, rng) == 0.02
        assert model.delay(1, 0, rng) == 0.02
        assert model.delay(1, 1, rng) == 0.0


#: A custom WAN matrix with a zero off-diagonal entry: that peer draws nothing.
ZERO_ENTRY_MATRIX = (
    (0.0005, 0.0, 0.1400),
    (0.0, 0.0005, 0.1000),
    (0.1400, 0.1000, 0.0),
)


class TestDelaysFrom:
    """``delays_from`` is one row of ``delay`` calls, bit for bit, draw for draw."""

    @pytest.mark.parametrize(
        "model",
        [
            WANLatencyModel(),
            WANLatencyModel(regions=("a", "b", "c"), matrix=ZERO_ENTRY_MATRIX),
            LANLatencyModel(),
            FixedLatencyModel(0.02),
        ],
        ids=["wan", "wan-zero-entry", "lan", "fixed"],
    )
    @pytest.mark.parametrize("count", [4, 32, 128])
    @pytest.mark.parametrize("seed", [0, 11, 2024])
    def test_matches_the_per_peer_loop(self, model, count, seed):
        rng, reference_rng = DeterministicRNG(seed), DeterministicRNG(seed)
        # Repeat sources so cached base rows are exercised, and include one
        # source outside the row.
        for source in [0, 1, count - 1, 1, 0, count]:
            row = model.delays_from(source, count, rng)
            expected = [
                0.0 if peer == source else model.delay(source, peer, reference_rng)
                for peer in range(count)
            ]
            assert [value.hex() for value in row] == [
                value.hex() for value in expected
            ]
        assert rng._random.getstate() == reference_rng._random.getstate()

    def test_rows_are_fresh_lists(self):
        model, rng = WANLatencyModel(), DeterministicRNG(0)
        first = model.delays_from(0, 8, rng)
        first.sort(reverse=True)
        assert model.delays_from(0, 8, rng)[0] == 0.0


class TestBandwidthModel:
    def test_serialization_delay_proportional_to_size(self):
        model = BandwidthModel(bandwidth_bps=1_000_000_000)
        assert model.serialization_delay(125_000_000) == pytest.approx(1.0)

    def test_fanout_shares_uplink(self):
        model = BandwidthModel(bandwidth_bps=1_000_000_000)
        single = model.serialization_delay(1_000_000, fanout=1)
        many = model.serialization_delay(1_000_000, fanout=10)
        assert many == pytest.approx(single * 10)

    def test_fanout_ignored_when_sharing_disabled(self):
        model = BandwidthModel(bandwidth_bps=1_000_000_000, per_node_share=False)
        assert model.serialization_delay(1_000_000, fanout=10) == pytest.approx(
            model.serialization_delay(1_000_000, fanout=1)
        )

    def test_zero_size_costs_nothing(self):
        assert BandwidthModel().serialization_delay(0) == 0.0


class TestFactory:
    def test_known_environments(self):
        assert isinstance(latency_model_for("lan"), LANLatencyModel)
        assert isinstance(latency_model_for("WAN"), WANLatencyModel)

    def test_unknown_environment_rejected(self):
        with pytest.raises(ValueError):
            latency_model_for("mars")
