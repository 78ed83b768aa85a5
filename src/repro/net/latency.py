"""Latency models for LAN and WAN deployments.

The paper evaluates Orthrus on AWS in two settings:

* **LAN** - machines in one region over private 1 Gbps interfaces.
* **WAN** - instances spread across four regions (France, the United States,
  Australia, Tokyo), again capped at 1 Gbps.

A :class:`LatencyModel` maps a ``(source, destination, rng)`` triple to a
one-way propagation delay in seconds.  Region assignment for the WAN model is
round-robin over the node id, mirroring an even spread of replicas across the
four data centres.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.sim.rng import DeterministicRNG

#: Region names used by the default WAN model (matches the paper's regions).
WAN_REGIONS: tuple[str, ...] = ("eu-west", "us-east", "ap-southeast", "ap-northeast")

#: Approximate one-way inter-region delays in seconds (France, US, Australia,
#: Tokyo).  Diagonal entries are the intra-region delay.  Values are derived
#: from public AWS inter-region RTT measurements and are configuration, not
#: hard-coded behaviour: experiments may substitute their own matrix.
DEFAULT_WAN_MATRIX: tuple[tuple[float, ...], ...] = (
    (0.0005, 0.0420, 0.1400, 0.1100),
    (0.0420, 0.0005, 0.1000, 0.0750),
    (0.1400, 0.1000, 0.0005, 0.0550),
    (0.1100, 0.0750, 0.0550, 0.0005),
)


class LatencyModel:
    """Interface: one-way propagation delay between two nodes."""

    def delay(self, source: int, destination: int, rng: DeterministicRNG) -> float:
        """Return the propagation delay in seconds for one message."""
        raise NotImplementedError

    def delays_from(
        self, source: int, count: int, rng: DeterministicRNG
    ) -> list[float]:
        """One-way delays from ``source`` to nodes ``0 .. count-1``.

        The entry for ``source`` itself is 0.0 and draws nothing; every other
        entry is exactly what :meth:`delay` returns for that peer, drawn in
        peer order.  Models with a jitter-free base override this to sample
        a whole row in one pass with the same draws.
        """
        return [
            0.0 if peer == source else self.delay(source, peer, rng)
            for peer in range(count)
        ]

    def region_of(self, node_id: int) -> str:
        """Name of the region a node lives in (single region by default)."""
        return "local"


@dataclass
class LANLatencyModel(LatencyModel):
    """Single-datacentre latency: sub-millisecond with light jitter."""

    base_delay: float = 0.0005
    jitter_sigma: float = 0.2

    def delay(self, source: int, destination: int, rng: DeterministicRNG) -> float:
        if source == destination:
            return 0.0
        return rng.lognormal_jitter(self.base_delay, self.jitter_sigma)

    def delays_from(
        self, source: int, count: int, rng: DeterministicRNG
    ) -> list[float]:
        row = [self.base_delay] * count
        if 0 <= source < count:
            row[source] = 0.0
        return rng.lognormal_jitters(row, self.jitter_sigma)


@dataclass
class WANLatencyModel(LatencyModel):
    """Four-region WAN latency with round-robin region assignment."""

    regions: Sequence[str] = WAN_REGIONS
    matrix: Sequence[Sequence[float]] = DEFAULT_WAN_MATRIX
    jitter_sigma: float = 0.15
    #: Jitter-free rows for :meth:`delays_from`, by ``(source, count)``.
    _base_rows: dict[tuple[int, int], list[float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def region_index(self, node_id: int) -> int:
        """Region index a node is assigned to (round-robin)."""
        return node_id % len(self.regions)

    def region_of(self, node_id: int) -> str:
        return self.regions[self.region_index(node_id)]

    def base_delay(self, source: int, destination: int) -> float:
        """Deterministic (jitter-free) one-way delay between two nodes."""
        if source == destination:
            return 0.0
        row = self.region_index(source)
        col = self.region_index(destination)
        return float(self.matrix[row][col])

    def delay(self, source: int, destination: int, rng: DeterministicRNG) -> float:
        base = self.base_delay(source, destination)
        if base == 0.0:
            return 0.0
        return rng.lognormal_jitter(base, self.jitter_sigma)

    def delays_from(
        self, source: int, count: int, rng: DeterministicRNG
    ) -> list[float]:
        row = self._base_rows.get((source, count))
        if row is None:
            row = [self.base_delay(source, peer) for peer in range(count)]
            self._base_rows[(source, count)] = row
        return rng.lognormal_jitters(row, self.jitter_sigma)


@dataclass
class FixedLatencyModel(LatencyModel):
    """Constant delay between distinct nodes; useful for unit tests."""

    fixed_delay: float = 0.01

    def delay(self, source: int, destination: int, rng: DeterministicRNG) -> float:
        return 0.0 if source == destination else self.fixed_delay


@dataclass
class BandwidthModel:
    """Per-link serialisation delay: ``bytes / bandwidth``.

    The paper caps network interfaces at 1 Gbps in both LAN and WAN settings,
    which makes block dissemination from the leader the throughput bottleneck.
    ``per_node_share`` models the fact that a leader fanning a block out to
    ``n - 1`` peers shares its uplink across those transfers.
    """

    bandwidth_bps: float = 1_000_000_000.0  # 1 Gbps, as in the paper
    per_node_share: bool = True

    def serialization_delay(self, size_bytes: int, fanout: int = 1) -> float:
        """Time to push ``size_bytes`` onto the wire for one destination.

        Args:
            size_bytes: Payload size of the message.
            fanout: Number of simultaneous destinations sharing the uplink.
        """
        if size_bytes <= 0 or self.bandwidth_bps <= 0:
            return 0.0
        effective_fanout = max(1, fanout) if self.per_node_share else 1
        return (size_bytes * 8.0 * effective_fanout) / self.bandwidth_bps


def latency_model_for(environment: str) -> LatencyModel:
    """Factory: return the latency model for ``"lan"`` or ``"wan"``."""
    normalized = environment.lower()
    if normalized == "lan":
        return LANLatencyModel()
    if normalized == "wan":
        return WANLatencyModel()
    raise ValueError(f"unknown network environment: {environment!r}")
