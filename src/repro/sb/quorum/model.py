"""Quorum-latency consensus model (instance fidelity).

Message-level PBFT for 128 replicas times 128 instances is intractable in
pure Python, so the large-scale sweeps (Fig. 3/4/5/6) use this analytical
back-end: the three PBFT communication phases are collapsed into a delivery
latency computed from order statistics of the pairwise latency distribution,
plus the leader's serialisation time for disseminating the block, plus
per-transaction CPU cost.  Stragglers multiply the leader-side components,
and undetectable Byzantine abstention shrinks the pool of voters, pushing the
quorum out to slower honest replicas (Sec. VII-E).

The model is deliberately simple and fully documented so its assumptions can
be audited: it stands in for the paper's AWS testbed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.signatures import CryptoCostModel
from repro.net.latency import BandwidthModel, LatencyModel, WANLatencyModel
from repro.sim.rng import DeterministicRNG


@dataclass
class QuorumLatencyConfig:
    """Parameters of the quorum-latency model."""

    #: Number of protocol phases after dissemination (prepare + commit).
    voting_phases: int = 2
    #: Per-transaction CPU cost on the critical path (verify + order), seconds.
    per_tx_cpu: float = 60e-6
    #: Fixed per-block processing overhead (batching, hashing), seconds.
    per_block_cpu: float = 2e-3


class QuorumLatencyModel:
    """Computes block delivery latency for one SB instance."""

    def __init__(
        self,
        num_replicas: int,
        latency_model: LatencyModel | None = None,
        bandwidth_model: BandwidthModel | None = None,
        crypto_model: CryptoCostModel | None = None,
        config: QuorumLatencyConfig | None = None,
        rng: DeterministicRNG | None = None,
    ) -> None:
        if num_replicas < 4:
            raise ValueError("BFT requires at least 4 replicas")
        self.num_replicas = num_replicas
        self.fault_tolerance = (num_replicas - 1) // 3
        self.latency_model = latency_model or WANLatencyModel()
        self.bandwidth_model = bandwidth_model or BandwidthModel()
        self.crypto_model = crypto_model or CryptoCostModel()
        self.config = config or QuorumLatencyConfig()
        self.rng = rng or DeterministicRNG(0)

    @property
    def quorum(self) -> int:
        """Replicas whose votes are needed (2f + 1)."""
        return 2 * self.fault_tolerance + 1

    # -- components -----------------------------------------------------------

    def dissemination_delay(
        self, leader: int, block_size_bytes: int, slowdown: float = 1.0
    ) -> float:
        """Time for the leader to push the block to all peers (bandwidth)."""
        fanout = self.num_replicas - 1
        serialization = self.bandwidth_model.serialization_delay(
            block_size_bytes, fanout
        )
        return serialization * max(1.0, slowdown)

    def quorum_round_delay(
        self, leader: int, *, abstaining: int = 0, slowdown: float = 1.0
    ) -> float:
        """One voting round: time until the leader hears from a quorum.

        Samples the leader's one-way latency to every peer, doubles it for the
        round trip, removes ``abstaining`` of the fastest voters (undetectable
        Byzantine replicas refuse to vote in instances they do not lead), and
        takes the ``2f+1``-th smallest of the rest.
        """
        one_ways = self.latency_model.delays_from(leader, self.num_replicas, self.rng)
        one_ways.sort()
        usable = one_ways[abstaining:] if abstaining else one_ways
        if not usable:
            usable = one_ways
        index = min(self.quorum - 1, len(usable) - 1)
        # Doubling is exact and order-preserving, so doubling the chosen
        # one-way delay is the same float as choosing among round trips.
        return 2.0 * usable[index] * max(1.0, slowdown)

    def processing_delay(self, transaction_count: int) -> float:
        """CPU time for validating and ordering the batch."""
        return (
            self.config.per_block_cpu
            + transaction_count * self.config.per_tx_cpu
            + transaction_count * self.crypto_model.verify_cost
        )

    # -- headline API -----------------------------------------------------------

    def delivery_latency(
        self,
        leader: int,
        block_size_bytes: int,
        transaction_count: int,
        *,
        slowdown: float = 1.0,
        abstaining: int = 0,
    ) -> float:
        """Total latency from ``broadcast`` to ``deliver`` for one block."""
        dissemination = self.dissemination_delay(leader, block_size_bytes, slowdown)
        voting = sum(
            self.quorum_round_delay(leader, abstaining=abstaining, slowdown=slowdown)
            for _ in range(self.config.voting_phases)
        )
        processing = self.processing_delay(transaction_count)
        return dissemination + voting + processing

    def leader_occupancy(
        self,
        block_size_bytes: int,
        transaction_count: int,
        *,
        slowdown: float = 1.0,
    ) -> float:
        """Time the leader's uplink/CPU is busy per block.

        This bounds the instance's block production rate: the next block
        cannot start dissemination before the previous one has left the
        leader.  It is also the term that makes every replica's 1 Gbps NIC
        the system-wide throughput bottleneck (each replica receives blocks
        from all other instances at the same rate it sends its own).
        """
        dissemination = self.dissemination_delay(0, block_size_bytes, slowdown)
        processing = self.processing_delay(transaction_count) * max(1.0, slowdown)
        return max(dissemination, processing)
