"""Per-transaction latency tracking and the five-stage breakdown (Fig. 6).

The paper splits end-to-end latency into five stages:

1. **Send** - client submits until a replica receives the transaction.
2. **Preprocessing** - receipt until the transaction is broadcast in a block.
3. **Partial ordering** - broadcast until the SB instance delivers the block.
4. **Global ordering** - delivery until the transaction is confirmed.
5. **Reply** - confirmation until the client holds ``f + 1`` replies.

:class:`TransactionTimeline` records those boundary timestamps for one
transaction; :class:`LatencyTracker` aggregates them across a run.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from operator import attrgetter

#: Stage names in pipeline order (used for reports and plots).
STAGE_NAMES: tuple[str, ...] = (
    "send",
    "preprocessing",
    "partial_ordering",
    "global_ordering",
    "reply",
)

#: Each stage's (start, end) timeline attributes, in pipeline order.
STAGE_BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    ("send", "submitted_at", "received_at"),
    ("preprocessing", "received_at", "proposed_at"),
    ("partial_ordering", "proposed_at", "delivered_at"),
    ("global_ordering", "delivered_at", "confirmed_at"),
    ("reply", "confirmed_at", "replied_at"),
)


@dataclass(slots=True)
class TransactionTimeline:
    """Boundary timestamps of one transaction's journey (seconds)."""

    tx_id: str
    submitted_at: float | None = None
    received_at: float | None = None
    proposed_at: float | None = None
    delivered_at: float | None = None
    confirmed_at: float | None = None
    replied_at: float | None = None
    committed: bool = False

    @property
    def complete(self) -> bool:
        """Whether every stage boundary has been recorded."""
        return None not in (
            self.submitted_at,
            self.received_at,
            self.proposed_at,
            self.delivered_at,
            self.confirmed_at,
            self.replied_at,
        )

    @property
    def end_to_end(self) -> float | None:
        """Client-observed latency (submit to reply)."""
        if self.submitted_at is None or self.replied_at is None:
            return None
        return self.replied_at - self.submitted_at

    def stage_durations(self) -> dict[str, float] | None:
        """Per-stage durations, or ``None`` when the timeline is incomplete."""
        if not self.complete:
            return None
        return {
            name: getattr(self, end) - getattr(self, start)
            for name, start, end in STAGE_BOUNDARIES
        }


@dataclass
class LatencySummary:
    """Aggregate latency statistics for a run."""

    count: int
    mean: float
    median: float
    p95: float
    maximum: float

    @classmethod
    def from_samples(cls, samples: list[float]) -> "LatencySummary":
        """Build a summary from raw latency samples (empty -> zeros)."""
        if not samples:
            return cls(count=0, mean=0.0, median=0.0, p95=0.0, maximum=0.0)
        ordered = sorted(samples)
        p95_index = min(len(ordered) - 1, int(round(0.95 * (len(ordered) - 1))))
        return cls(
            count=len(ordered),
            mean=statistics.fmean(ordered),
            median=ordered[len(ordered) // 2],
            p95=ordered[p95_index],
            maximum=ordered[-1],
        )


#: The six stage boundaries of a timeline, in pipeline order, in one C call.
_boundaries = attrgetter(
    STAGE_BOUNDARIES[0][1], *(end for _, _, end in STAGE_BOUNDARIES)
)


def _add_stages(
    timeline: TransactionTimeline, totals: list[float], counts: list[int]
) -> None:
    """Add every stage ``timeline`` holds both boundaries of (``totals`` and
    ``counts`` are indexed like ``STAGE_NAMES``)."""
    times = _boundaries(timeline)
    start = times[0]
    for stage in range(len(STAGE_NAMES)):
        end = times[stage + 1]
        if start is not None and end is not None:
            totals[stage] += end - start
            counts[stage] += 1
        start = end


class LatencyTracker:
    """Collects transaction timelines and produces latency statistics."""

    def __init__(self) -> None:
        self._timelines: dict[str, TransactionTimeline] = {}
        #: Per-stage duration totals and sample counts of timelines no longer
        #: held (zeros here: only :class:`StreamingLatencyTracker` drops any).
        self._folded_totals = [0.0] * len(STAGE_NAMES)
        self._folded_counts = [0] * len(STAGE_NAMES)

    def timeline(self, tx_id: str) -> TransactionTimeline:
        """Get or create the timeline for a transaction."""
        if tx_id not in self._timelines:
            self._timelines[tx_id] = TransactionTimeline(tx_id=tx_id)
        return self._timelines[tx_id]

    # -- stage recording ------------------------------------------------------

    def record_submitted(self, tx_id: str, time: float) -> None:
        """Client handed the transaction to the system."""
        self.timeline(tx_id).submitted_at = time

    def record_received(self, tx_id: str, time: float) -> None:
        """A replica received the transaction (first receipt wins)."""
        timeline = self.timeline(tx_id)
        if timeline.received_at is None or time < timeline.received_at:
            timeline.received_at = time

    def record_proposed(self, tx_id: str, time: float) -> None:
        """The transaction was included in a broadcast block."""
        timeline = self.timeline(tx_id)
        if timeline.proposed_at is None or time < timeline.proposed_at:
            timeline.proposed_at = time

    def record_delivered(self, tx_id: str, time: float) -> None:
        """The SB instance delivered the block containing the transaction."""
        timeline = self.timeline(tx_id)
        if timeline.delivered_at is None or time < timeline.delivered_at:
            timeline.delivered_at = time

    def record_confirmed(self, tx_id: str, time: float, *, committed: bool) -> None:
        """The transaction was executed (successfully or not)."""
        timeline = self.timeline(tx_id)
        if timeline.confirmed_at is None:
            timeline.confirmed_at = time
            timeline.committed = committed

    def record_replied(self, tx_id: str, time: float) -> None:
        """The client collected ``f + 1`` replies."""
        timeline = self.timeline(tx_id)
        if timeline.replied_at is None:
            timeline.replied_at = time

    # -- aggregation ------------------------------------------------------------

    def timelines(self) -> list[TransactionTimeline]:
        """All recorded timelines (phase-windowed SLO reports iterate these)."""
        return list(self._timelines.values())

    def confirmed_timelines(self) -> list[TransactionTimeline]:
        """Timelines of transactions that reached confirmation."""
        return [t for t in self._timelines.values() if t.confirmed_at is not None]

    def end_to_end_summary(self) -> LatencySummary:
        """Summary of client-observed latencies."""
        samples = [
            t.end_to_end for t in self._timelines.values() if t.end_to_end is not None
        ]
        return LatencySummary.from_samples(samples)

    def confirmation_latency_summary(self) -> LatencySummary:
        """Summary of submit-to-confirmation latencies."""
        samples = [
            t.confirmed_at - t.submitted_at
            for t in self._timelines.values()
            if t.confirmed_at is not None and t.submitted_at is not None
        ]
        return LatencySummary.from_samples(samples)

    def latency_series(
        self, start: float, end: float, window: float = 0.5
    ) -> list[tuple[float, float]]:
        """Average submit-to-confirmation latency per time window.

        Each entry is ``(window_start, mean_latency)`` over the transactions
        confirmed inside that window; windows with no confirmations report
        zero (matching the gaps visible in the paper's Fig. 7b).
        """
        if end <= start or window <= 0:
            return []
        buckets: dict[int, list[float]] = {}
        for timeline in self._timelines.values():
            if timeline.confirmed_at is None or timeline.submitted_at is None:
                continue
            if not start <= timeline.confirmed_at < end:
                continue
            index = int((timeline.confirmed_at - start) // window)
            buckets.setdefault(index, []).append(
                timeline.confirmed_at - timeline.submitted_at
            )
        series: list[tuple[float, float]] = []
        count = int((end - start) / window + 0.999999)
        for index in range(count):
            samples = buckets.get(index, [])
            mean = sum(samples) / len(samples) if samples else 0.0
            series.append((start + index * window, mean))
        return series

    def stage_breakdown_partial(self) -> dict[str, float]:
        """Average each stage independently over timelines that recorded it.

        Unlike :meth:`stage_breakdown`, which only counts timelines with every
        boundary present, this averages each stage over whichever timelines
        hold *that stage's* two boundaries.  The live runtime uses it: a
        replica records submitted/received/proposed/delivered/confirmed but
        never observes the client's reply receipt, so its timelines are never
        complete; the load generator measures the reply stage itself and
        merges it in.
        """
        totals = list(self._folded_totals)
        counts = list(self._folded_counts)
        for timeline in self._timelines.values():
            _add_stages(timeline, totals, counts)
        return {
            name: (total / count if count else 0.0)
            for name, total, count in zip(STAGE_NAMES, totals, counts)
        }

    def stage_breakdown(self) -> dict[str, float]:
        """Average duration of each stage over complete timelines."""
        totals = {name: 0.0 for name in STAGE_NAMES}
        count = 0
        for timeline in self._timelines.values():
            durations = timeline.stage_durations()
            if durations is None:
                continue
            count += 1
            for name in STAGE_NAMES:
                totals[name] += durations[name]
        if count == 0:
            return {name: 0.0 for name in STAGE_NAMES}
        return {name: totals[name] / count for name in STAGE_NAMES}

    def __len__(self) -> int:
        return len(self._timelines)


class StreamingLatencyTracker(LatencyTracker):
    """Stage averages for a process that never stops: a live replica.

    A timeline is held only while its transaction is unconfirmed.  At
    confirmation — the last boundary a replica observes — it is folded into
    running per-stage sums and dropped, so the tracker's size follows the
    transactions in flight rather than every transaction ever executed.
    :meth:`stage_breakdown_partial` reads the same numbers the retaining
    tracker would; per-transaction views (``timelines()``, the summaries)
    only cover what is still open.
    """

    def record_confirmed(self, tx_id: str, time: float, *, committed: bool) -> None:
        timeline = self._timelines.pop(tx_id, None)
        if timeline is None:
            return
        timeline.confirmed_at = time
        _add_stages(timeline, self._folded_totals, self._folded_counts)
