"""Unit tests for frame encoding and runtime configuration."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.runtime.config import (
    ReplicaRuntimeConfig,
    format_endpoint,
    is_uds_endpoint,
    parse_endpoint,
    uds_path,
)
from repro.runtime.framing import (
    MAX_FRAME_BYTES,
    FrameError,
    FrameReader,
    encode_frame,
)
from repro.workload.config import WorkloadConfig

PEERS = tuple(("127.0.0.1", 7000 + i) for i in range(4))


def drain_frames(data: bytes) -> list[bytes | None]:
    """Feed raw bytes through a FrameReader; the frames, then ``None`` at EOF."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        frames = FrameReader(reader)
        out: list[bytes | None] = []
        while (batch := await frames.read_batch()) is not None:
            out.extend(batch)
        return out + [None]

    return asyncio.run(run())


class TestFraming:
    def test_round_trip_multiple_frames(self):
        payloads = [b"", b"x", b"hello world" * 100]
        stream = b"".join(encode_frame(p) for p in payloads)
        assert drain_frames(stream) == payloads + [None]

    def test_clean_eof_returns_none(self):
        assert drain_frames(b"") == [None]

    def test_truncated_frame_raises(self):
        stream = encode_frame(b"full")[:-2]
        with pytest.raises(FrameError, match="mid-frame"):
            drain_frames(stream)

    def test_oversized_announcement_raises(self):
        header = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(FrameError, match="max"):
            drain_frames(header + b"x")

    def test_oversized_payload_refused_at_encode(self):
        with pytest.raises(FrameError):
            encode_frame(b"\0" * (MAX_FRAME_BYTES + 1))


def drain_batches(chunks: list[bytes]) -> list[list[bytes] | None]:
    """Feed byte chunks through a FrameReader and collect read_batch calls."""

    async def run():
        reader = asyncio.StreamReader()
        for chunk in chunks:
            reader.feed_data(chunk)
        reader.feed_eof()
        frames = FrameReader(reader)
        batches: list[list[bytes] | None] = []
        while True:
            batch = await frames.read_batch()
            batches.append(batch)
            if batch is None:
                break
        return batches

    return asyncio.run(run())


class TestFrameReader:
    def test_burst_surfaces_in_one_batch(self):
        payloads = [b"", b"x", b"hello" * 50, b"y"]
        stream = b"".join(encode_frame(p) for p in payloads)
        assert drain_batches([stream]) == [payloads, None]

    def test_clean_eof_returns_none(self):
        assert drain_batches([]) == [None]

    def test_split_across_chunks_reassembles(self):
        stream = encode_frame(b"abcdef" * 100)
        # Feed in awkward slices: the frame spans every chunk boundary.
        chunks = [stream[:3], stream[3:7], stream[7:]]
        batches = drain_batches(chunks)
        assert batches == [[b"abcdef" * 100], None]

    def test_mid_frame_eof_raises(self):
        with pytest.raises(FrameError, match="mid-frame"):
            drain_batches([encode_frame(b"full")[:-2]])

    def test_oversized_announcement_raises(self):
        header = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(FrameError, match="max"):
            drain_batches([header + b"x"])


class TestEndpoints:
    def test_parse_and_format(self):
        assert parse_endpoint("10.0.0.1:7001") == ("10.0.0.1", 7001)
        assert format_endpoint(("10.0.0.1", 7001)) == "10.0.0.1:7001"

    @pytest.mark.parametrize("bad", ["nohost", ":7000", "host:", "host:abc", "host:0"])
    def test_invalid_endpoints(self, bad):
        with pytest.raises(ConfigurationError):
            parse_endpoint(bad)

    def test_uds_round_trip(self):
        endpoint = parse_endpoint("unix:/tmp/replica-0.sock")
        assert endpoint == ("unix:/tmp/replica-0.sock", 0)
        assert is_uds_endpoint(endpoint)
        assert uds_path(endpoint) == "/tmp/replica-0.sock"
        assert format_endpoint(endpoint) == "unix:/tmp/replica-0.sock"

    def test_tcp_endpoint_is_not_uds(self):
        assert not is_uds_endpoint(("127.0.0.1", 7001))

    def test_empty_uds_path_is_invalid(self):
        with pytest.raises(ConfigurationError):
            parse_endpoint("unix:")


class TestReplicaRuntimeConfig:
    def test_defaults(self):
        config = ReplicaRuntimeConfig(replica_id=1, peers=PEERS)
        assert config.num_replicas == 4
        assert config.instances == 4
        assert config.listen_endpoint == ("127.0.0.1", 7001)

    def test_too_few_replicas(self):
        with pytest.raises(ConfigurationError, match="at least 4"):
            ReplicaRuntimeConfig(replica_id=0, peers=PEERS[:3])

    def test_replica_id_out_of_range(self):
        with pytest.raises(ConfigurationError, match="out of range"):
            ReplicaRuntimeConfig(replica_id=4, peers=PEERS)

    def test_for_replica_views_same_cluster(self):
        config = ReplicaRuntimeConfig(replica_id=0, peers=PEERS)
        sibling = config.for_replica(2)
        assert sibling.peers == config.peers
        assert sibling.listen_endpoint == ("127.0.0.1", 7002)

    def test_genesis_is_identical_across_replicas(self):
        """Every replica must boot from the same state or diverge instantly."""
        workload = WorkloadConfig(num_accounts=64, seed=9)
        digests = {
            ReplicaRuntimeConfig(
                replica_id=i, peers=PEERS, workload=workload
            ).genesis_digest()
            for i in range(4)
        }
        assert len(digests) == 1

    def test_build_core_populates_genesis(self):
        config = ReplicaRuntimeConfig(
            replica_id=0, peers=PEERS, workload=WorkloadConfig(num_accounts=64)
        )
        core = config.build_core()
        assert len(core.store) >= 64
        assert core.store.state_digest() == config.genesis_digest()
