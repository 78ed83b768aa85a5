"""Run-level metric aggregation shared by the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics.latency import LatencySummary, LatencyTracker
from repro.metrics.throughput import ThroughputPoint, ThroughputTracker


@dataclass
class RunMetrics:
    """Everything a single experiment run reports.

    Attributes:
        duration: Measured interval length in simulated seconds.
        throughput_tps: Confirmed transactions per second over the interval.
        latency: End-to-end latency summary (client submit -> f+1 replies).
        confirmation_latency: Submit-to-confirmation latency summary.
        stage_breakdown: Average seconds spent in each of the five stages.
        confirmed: Total confirmed transactions (committed + rejected).
        committed: Transactions executed successfully.
        rejected: Transactions executed unsuccessfully.
        partial_path: Transactions confirmed via Orthrus's partial path.
        global_path: Transactions confirmed via the global log.
        series: Windowed throughput series.
        extra: Free-form counters (network stats, escrow stats, ...).
    """

    duration: float
    throughput_tps: float
    latency: LatencySummary
    confirmation_latency: LatencySummary
    stage_breakdown: dict[str, float]
    confirmed: int
    committed: int
    rejected: int
    partial_path: int = 0
    global_path: int = 0
    series: list[ThroughputPoint] = field(default_factory=list)
    latency_series: list[tuple[float, float]] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def throughput_ktps(self) -> float:
        """Throughput in kilo-transactions per second (the paper's unit)."""
        return self.throughput_tps / 1000.0


class MetricsCollector:
    """Bundles the latency and throughput trackers used during a run."""

    def __init__(self, latency: LatencyTracker | None = None) -> None:
        self.latency = latency if latency is not None else LatencyTracker()
        self.throughput = ThroughputTracker()
        self.committed = 0
        self.rejected = 0
        self.partial_path = 0
        self.global_path = 0

    def record_outcome(
        self, tx_id: str, time: float, *, committed: bool, partial_path: bool
    ) -> None:
        """Record one confirmation with its path and result."""
        self.latency.record_confirmed(tx_id, time, committed=committed)
        self.throughput.record_confirmation(time)
        if committed:
            self.committed += 1
        else:
            self.rejected += 1
        if partial_path:
            self.partial_path += 1
        else:
            self.global_path += 1

    def finalize(
        self,
        *,
        start: float,
        end: float,
        window: float = 0.5,
        extra: dict[str, float] | None = None,
    ) -> RunMetrics:
        """Build the :class:`RunMetrics` for the measurement interval."""
        duration = max(end - start, 1e-9)
        confirmed = self.committed + self.rejected
        return RunMetrics(
            duration=duration,
            throughput_tps=self.throughput.rate_over(start, end),
            latency=self.latency.end_to_end_summary(),
            confirmation_latency=self.latency.confirmation_latency_summary(),
            stage_breakdown=self.latency.stage_breakdown(),
            confirmed=confirmed,
            committed=self.committed,
            rejected=self.rejected,
            partial_path=self.partial_path,
            global_path=self.global_path,
            series=self.throughput.series(start, end, window),
            latency_series=self.latency.latency_series(start, end, window),
            extra=dict(extra or {}),
        )
