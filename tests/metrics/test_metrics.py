"""Tests for latency tracking, throughput series and run metrics."""

import pytest

from repro.metrics.latency import (
    STAGE_NAMES,
    LatencySummary,
    LatencyTracker,
    StreamingLatencyTracker,
    TransactionTimeline,
)
from repro.metrics.summary import MetricsCollector
from repro.metrics.throughput import ThroughputTracker


class TestTimeline:
    def complete_timeline(self):
        timeline = TransactionTimeline("tx")
        timeline.submitted_at = 0.0
        timeline.received_at = 0.1
        timeline.proposed_at = 0.3
        timeline.delivered_at = 0.8
        timeline.confirmed_at = 1.5
        timeline.replied_at = 1.6
        return timeline

    def test_stage_durations(self):
        durations = self.complete_timeline().stage_durations()
        assert durations["send"] == pytest.approx(0.1)
        assert durations["preprocessing"] == pytest.approx(0.2)
        assert durations["partial_ordering"] == pytest.approx(0.5)
        assert durations["global_ordering"] == pytest.approx(0.7)
        assert durations["reply"] == pytest.approx(0.1)
        assert sum(durations.values()) == pytest.approx(1.6)

    def test_incomplete_timeline_has_no_breakdown(self):
        timeline = TransactionTimeline("tx", submitted_at=0.0)
        assert timeline.stage_durations() is None
        assert not timeline.complete

    def test_end_to_end(self):
        assert self.complete_timeline().end_to_end == pytest.approx(1.6)
        assert TransactionTimeline("x").end_to_end is None


class TestLatencySummary:
    def test_from_samples(self):
        summary = LatencySummary.from_samples([1.0, 2.0, 3.0, 4.0, 100.0])
        assert summary.count == 5
        assert summary.mean == pytest.approx(22.0)
        assert summary.median == 3.0
        assert summary.maximum == 100.0
        assert summary.p95 == 100.0

    def test_empty_samples(self):
        summary = LatencySummary.from_samples([])
        assert summary.count == 0
        assert summary.mean == 0.0


class TestLatencyTracker:
    def test_first_receipt_wins(self):
        tracker = LatencyTracker()
        tracker.record_received("tx", 1.0)
        tracker.record_received("tx", 0.5)
        tracker.record_received("tx", 2.0)
        assert tracker.timeline("tx").received_at == 0.5

    def test_confirmation_recorded_once(self):
        tracker = LatencyTracker()
        tracker.record_confirmed("tx", 1.0, committed=True)
        tracker.record_confirmed("tx", 5.0, committed=False)
        timeline = tracker.timeline("tx")
        assert timeline.confirmed_at == 1.0
        assert timeline.committed

    def test_stage_breakdown_averages_complete_timelines(self):
        tracker = LatencyTracker()
        for index, tx_id in enumerate(("a", "b")):
            tracker.record_submitted(tx_id, 0.0)
            tracker.record_received(tx_id, 0.1)
            tracker.record_proposed(tx_id, 0.2)
            tracker.record_delivered(tx_id, 0.4)
            tracker.record_confirmed(tx_id, 0.5 + index, committed=True)
            tracker.record_replied(tx_id, 0.6 + index)
        breakdown = tracker.stage_breakdown()
        assert set(breakdown) == set(STAGE_NAMES)
        assert breakdown["global_ordering"] == pytest.approx(0.6)

    def test_breakdown_empty_when_no_complete_timelines(self):
        tracker = LatencyTracker()
        tracker.record_submitted("x", 0.0)
        assert all(value == 0.0 for value in tracker.stage_breakdown().values())

    def test_latency_series_windows(self):
        tracker = LatencyTracker()
        for tx_id, submit, confirm in (("a", 0.0, 0.4), ("b", 0.0, 0.6), ("c", 0.5, 0.9)):
            tracker.record_submitted(tx_id, submit)
            tracker.record_confirmed(tx_id, confirm, committed=True)
        series = tracker.latency_series(0.0, 1.0, window=0.5)
        assert len(series) == 2
        assert series[0][1] == pytest.approx(0.4)
        assert series[1][1] == pytest.approx((0.6 + 0.4) / 2)

    def test_confirmation_latency_summary(self):
        tracker = LatencyTracker()
        tracker.record_submitted("a", 1.0)
        tracker.record_confirmed("a", 3.0, committed=True)
        summary = tracker.confirmation_latency_summary()
        assert summary.count == 1
        assert summary.mean == pytest.approx(2.0)


class TestThroughputTracker:
    def test_rate_over_interval(self):
        tracker = ThroughputTracker()
        for time in (0.1, 0.2, 0.9, 1.5):
            tracker.record_confirmation(time)
        assert tracker.total_confirmed == 4
        assert tracker.rate_over(0.0, 1.0) == pytest.approx(3.0)
        assert tracker.rate_over(1.0, 2.0) == pytest.approx(1.0)
        assert tracker.rate_over(2.0, 2.0) == 0.0

    def test_series_windows(self):
        tracker = ThroughputTracker()
        for time in (0.1, 0.2, 0.6, 1.4):
            tracker.record_confirmation(time)
        series = tracker.series(0.0, 1.5, window=0.5)
        assert [point.transactions for point in series] == [2, 1, 1]
        assert series[0].rate == pytest.approx(4.0)

    def test_empty_series_for_bad_bounds(self):
        assert ThroughputTracker().series(1.0, 0.5) == []

    def test_empty_and_degenerate_windows(self):
        tracker = ThroughputTracker()
        assert tracker.rate_over(0.0, 1.0) == 0.0
        assert tracker.rate_over(1.0, 1.0) == 0.0
        assert tracker.rate_over(2.0, 1.0) == 0.0
        assert tracker.series(0.0, 0.0) == []
        assert tracker.series(0.0, 1.0, window=0.0) == []
        assert tracker.series(0.0, 1.0, window=-1.0) == []
        # An empty tracker still produces zero-count windows over the span.
        series = tracker.series(0.0, 1.0, window=0.5)
        assert [point.transactions for point in series] == [0, 0]
        assert all(point.rate == 0.0 for point in series)

    def test_zero_duration_point_has_zero_rate(self):
        from repro.metrics.throughput import ThroughputPoint

        assert ThroughputPoint(1.0, 1.0, transactions=5).rate == 0.0

    def test_confirmations_outside_bounds_are_excluded(self):
        tracker = ThroughputTracker()
        for time in (-1.0, 0.0, 0.49, 0.5, 0.99, 1.0, 5.0):
            tracker.record_confirmation(time)
        series = tracker.series(0.0, 1.0, window=0.5)
        # [0, 0.5) holds {0.0, 0.49}; [0.5, 1.0) holds {0.5, 0.99};
        # -1.0, 1.0 and 5.0 fall outside the series bounds.
        assert [point.transactions for point in series] == [2, 2]
        assert sum(point.transactions for point in series) == 4

    def test_series_windows_do_not_drift(self):
        tracker = ThroughputTracker()
        # 0.1 is not exactly representable in binary floating point, so the
        # old accumulating window_start += window drifted over many windows;
        # index-based boundaries must stay on the start + i*window grid.
        count = 10_000
        series = tracker.series(0.0, count * 0.1, window=0.1)
        assert len(series) == count
        for index in (0, 1, 4_999, 9_999):
            point = series[index]
            assert point.window_start == pytest.approx(index * 0.1, abs=1e-9)
        # Windows tile the span exactly: each ends where the next begins.
        for left, right in zip(series, series[1:]):
            assert left.window_end == right.window_start

    def test_final_partial_window_is_clamped(self):
        tracker = ThroughputTracker()
        tracker.record_confirmation(1.1)
        series = tracker.series(0.0, 1.2, window=0.5)
        assert len(series) == 3
        assert series[-1].window_end == pytest.approx(1.2)
        assert series[-1].transactions == 1
        # The clamped window's rate uses its true (shorter) duration.
        assert series[-1].rate == pytest.approx(1 / (1.2 - 1.0))


class TestMetricsCollector:
    def test_record_outcome_and_finalize(self):
        collector = MetricsCollector()
        collector.latency.record_submitted("a", 0.0)
        collector.record_outcome("a", 1.0, committed=True, partial_path=True)
        collector.latency.record_submitted("b", 0.5)
        collector.record_outcome("b", 1.9, committed=False, partial_path=False)
        metrics = collector.finalize(start=0.0, end=2.0, extra={"custom": 7.0})
        assert metrics.confirmed == 2
        assert metrics.committed == 1
        assert metrics.rejected == 1
        assert metrics.partial_path == 1
        assert metrics.global_path == 1
        assert metrics.throughput_tps == pytest.approx(1.0)
        assert metrics.throughput_ktps == pytest.approx(0.001)
        assert metrics.extra["custom"] == 7.0
        assert metrics.duration == pytest.approx(2.0)
        assert len(metrics.series) == 4


class TestStageBreakdownPartial:
    """Edge cases of the live runtime's per-stage averaging.

    Live replica timelines are never complete (the replica cannot observe
    the client's reply receipt), so each stage averages over whichever
    timelines hold *that stage's* two boundaries.
    """

    def test_empty_tracker_reports_all_zero_stages(self):
        tracker = LatencyTracker()
        breakdown = tracker.stage_breakdown_partial()
        assert set(breakdown) == set(STAGE_NAMES)
        assert all(value == 0.0 for value in breakdown.values())

    def test_zero_confirmed_transactions(self):
        # Submissions that never execute contribute only their early stages.
        tracker = LatencyTracker()
        tracker.record_submitted("t1", 1.0)
        tracker.record_received("t1", 1.5)
        breakdown = tracker.stage_breakdown_partial()
        assert breakdown["send"] == pytest.approx(0.5)
        for stage in ("preprocessing", "partial_ordering", "global_ordering", "reply"):
            assert breakdown[stage] == 0.0
        assert tracker.confirmed_timelines() == []

    def test_missing_interior_stage_does_not_poison_neighbours(self):
        # A timeline missing proposed_at (e.g. the tx rode a block proposed
        # by an uninstrumented replica) contributes send and global_ordering
        # but neither preprocessing nor partial_ordering.
        tracker = LatencyTracker()
        tracker.record_submitted("t1", 1.0)
        tracker.record_received("t1", 1.2)
        tracker.record_delivered("t1", 2.0)
        tracker.record_confirmed("t1", 2.5, committed=True)
        breakdown = tracker.stage_breakdown_partial()
        assert breakdown["send"] == pytest.approx(0.2)
        assert breakdown["preprocessing"] == 0.0
        assert breakdown["partial_ordering"] == 0.0
        assert breakdown["global_ordering"] == pytest.approx(0.5)

    def test_stages_average_over_different_timeline_subsets(self):
        tracker = LatencyTracker()
        # t1: full replica-side path.
        tracker.record_submitted("t1", 0.0)
        tracker.record_received("t1", 1.0)
        tracker.record_proposed("t1", 2.0)
        tracker.record_delivered("t1", 3.0)
        tracker.record_confirmed("t1", 4.0, committed=True)
        # t2: only the send stage recorded.
        tracker.record_submitted("t2", 0.0)
        tracker.record_received("t2", 3.0)
        breakdown = tracker.stage_breakdown_partial()
        assert breakdown["send"] == pytest.approx(2.0)  # mean of 1.0 and 3.0
        assert breakdown["preprocessing"] == pytest.approx(1.0)  # t1 only
        assert breakdown["partial_ordering"] == pytest.approx(1.0)
        assert breakdown["global_ordering"] == pytest.approx(1.0)
        assert breakdown["reply"] == 0.0  # replicas never see it

    def test_client_replica_clock_composition(self):
        # The live loadgen composes client-side stamps (submitted, replied)
        # with replica-side stamps on one shared monotonic clock; the partial
        # breakdown must bridge both without requiring complete timelines.
        tracker = LatencyTracker()
        tracker.record_submitted("t1", 10.0)   # client clock
        tracker.record_received("t1", 10.3)    # replica clock
        tracker.record_confirmed("t1", 11.0, committed=True)  # replica clock
        tracker.record_replied("t1", 11.4)     # client clock
        breakdown = tracker.stage_breakdown_partial()
        assert breakdown["send"] == pytest.approx(0.3)
        assert breakdown["reply"] == pytest.approx(0.4)

    def test_partial_and_complete_breakdowns_agree_on_complete_timelines(self):
        tracker = LatencyTracker()
        for index, base in enumerate((0.0, 10.0)):
            tx = f"t{index}"
            tracker.record_submitted(tx, base)
            tracker.record_received(tx, base + 0.1)
            tracker.record_proposed(tx, base + 0.3)
            tracker.record_delivered(tx, base + 0.6)
            tracker.record_confirmed(tx, base + 1.0, committed=True)
            tracker.record_replied(tx, base + 1.5)
        assert tracker.stage_breakdown_partial() == pytest.approx(
            tracker.stage_breakdown()
        )


class TestStreamingLatencyTracker:
    """The live replica's tracker: same stage averages, no history."""

    def replica_events(self, tracker, count):
        for index in range(count):
            tx, base = f"t{index}", float(index)
            if index % 2 == 0:  # a replica the client sent the request to
                tracker.record_submitted(tx, base)
                tracker.record_received(tx, base + 0.25)
            if index % 4 == 0:  # ... that also led the instance
                tracker.record_proposed(tx, base + 0.5)
            tracker.record_delivered(tx, base + 1.0)
            if index != count - 1:  # the last one is still in flight
                tracker.record_confirmed(tx, base + 1.0 + index / 8, committed=True)

    def test_same_breakdown_as_the_retaining_tracker(self):
        retaining, streaming = LatencyTracker(), StreamingLatencyTracker()
        self.replica_events(retaining, 41)
        self.replica_events(streaming, 41)
        assert streaming.stage_breakdown_partial() == retaining.stage_breakdown_partial()

    def test_holds_only_unconfirmed_timelines(self):
        streaming = StreamingLatencyTracker()
        self.replica_events(streaming, 41)
        assert [t.tx_id for t in streaming.timelines()] == ["t40"]
        self.replica_events(streaming, 400)
        assert len(streaming) == 1

    def test_confirmation_without_a_timeline_opens_none(self):
        streaming = StreamingLatencyTracker()
        streaming.record_confirmed("never-seen", 1.0, committed=True)
        assert len(streaming) == 0
