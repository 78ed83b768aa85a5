"""Tests for partial logs, the processed frontier, epochs and checkpoints."""

import pytest

from repro.core.epochs import Checkpoint, CheckpointQuorum, EpochTracker
from repro.core.logs import PartialLog, ProcessedFrontier
from repro.ledger.blocks import Block, SystemState
from repro.ledger.transactions import simple_transfer


def make_block(instance, sn, state=None):
    return Block.create(
        instance=instance,
        sequence_number=sn,
        transactions=[simple_transfer("a", "b", 1)],
        state=state or SystemState.initial(2),
        proposer=instance,
    )


class TestPartialLog:
    def test_add_and_peek_in_order(self):
        plog = PartialLog(0)
        assert plog.add(make_block(0, 0))
        assert plog.add(make_block(0, 1))
        assert plog.peek_next().sequence_number == 0
        plog.mark_processed(0)
        assert plog.peek_next().sequence_number == 1

    def test_duplicate_add_rejected(self):
        plog = PartialLog(0)
        assert plog.add(make_block(0, 0))
        assert not plog.add(make_block(0, 0))

    def test_gap_blocks_processing(self):
        plog = PartialLog(0)
        plog.add(make_block(0, 1))
        assert plog.peek_next() is None
        plog.add(make_block(0, 0))
        assert plog.peek_next().sequence_number == 0

    def test_highest_delivered_tracks_maximum(self):
        plog = PartialLog(0)
        assert plog.highest_delivered == -1
        plog.add(make_block(0, 4))
        assert plog.highest_delivered == 4

    def test_processing_releases_the_block_and_keeps_the_unprocessed(self):
        plog = PartialLog(0)
        for sn in range(4):
            plog.add(make_block(0, sn))
        plog.mark_processed(0)
        plog.mark_processed(1)
        assert len(plog) == 2
        assert plog.get(1) is None
        assert plog.get(2) is not None
        assert plog.next_to_process == 2

    def test_processed_positions_still_reject_duplicates(self):
        plog = PartialLog(0)
        plog.add(make_block(0, 0))
        plog.mark_processed(0)
        assert not plog.add(make_block(0, 0))
        assert len(plog) == 0

    def test_out_of_order_processing_holds_only_the_reordering_window(self):
        # The baselines process a block the moment it arrives, and the
        # pipeline simulator may deliver an instance's blocks out of order.
        plog = PartialLog(0)
        for sn in (2, 1):
            assert plog.add(make_block(0, sn))
            plog.mark_processed(sn)
        assert plog.next_to_process == 0
        assert not plog.add(make_block(0, 2))
        assert plog.add(make_block(0, 0))
        plog.mark_processed(0)
        assert plog.next_to_process == 3
        assert len(plog) == 0 and not plog._processed_ahead


class TestProcessedFrontier:
    def test_covers_initial_state(self):
        frontier = ProcessedFrontier(2)
        assert frontier.covers(SystemState.initial(2))

    def test_covers_after_advancing(self):
        frontier = ProcessedFrontier(2)
        frontier.advance(0, 3)
        assert frontier.covers(SystemState((3, -1)))
        assert not frontier.covers(SystemState((4, -1)))
        assert not frontier.covers(SystemState((0, 0)))

    def test_arity_mismatch_never_covered(self):
        frontier = ProcessedFrontier(2)
        assert not frontier.covers(SystemState((-1,)))

    def test_as_state_and_indexing(self):
        frontier = ProcessedFrontier(3)
        frontier.advance(1, 5)
        assert frontier.as_state().sequence_numbers == (-1, 5, -1)
        assert frontier[1] == 5


class TestEpochTracker:
    def test_epoch_of(self):
        tracker = EpochTracker(2, epoch_length=4)
        assert tracker.epoch_of(0) == 0
        assert tracker.epoch_of(3) == 0
        assert tracker.epoch_of(4) == 1

    def test_epoch_completes_only_when_all_instances_finish(self):
        tracker = EpochTracker(2, epoch_length=2)
        tracker.record_processed(0, 1)
        assert tracker.newly_completed() == []
        tracker.record_processed(1, 1)
        assert tracker.newly_completed() == [0]
        assert tracker.completed_count == 1

    def test_multiple_epochs_complete_in_order(self):
        tracker = EpochTracker(2, epoch_length=1)
        tracker.record_processed(0, 3)
        tracker.record_processed(1, 3)
        assert tracker.newly_completed() == [0, 1, 2, 3]

    def test_invalid_epoch_length_rejected(self):
        with pytest.raises(ValueError):
            EpochTracker(2, epoch_length=0)

    def test_first_sequence_of(self):
        tracker = EpochTracker(2, epoch_length=8)
        assert tracker.first_sequence_of(3) == 24


class TestCheckpoints:
    def test_checkpoint_digest_depends_on_state(self):
        a = Checkpoint(epoch=0, frontier=(1, 1), state_digest="abc")
        b = Checkpoint(epoch=0, frontier=(1, 1), state_digest="def")
        assert a.digest != b.digest

    def test_quorum_becomes_stable_at_threshold(self):
        quorum = CheckpointQuorum(3)
        assert not quorum.add_vote(0, "d", replica=0)
        assert not quorum.add_vote(0, "d", replica=1)
        assert quorum.add_vote(0, "d", replica=2)
        assert quorum.is_stable(0)
        assert quorum.stable_digest(0) == "d"

    def test_mismatched_digests_do_not_combine(self):
        quorum = CheckpointQuorum(2)
        quorum.add_vote(0, "d1", replica=0)
        assert not quorum.add_vote(0, "d2", replica=1)
        assert not quorum.is_stable(0)

    def test_votes_after_stability_ignored(self):
        quorum = CheckpointQuorum(1)
        assert quorum.add_vote(0, "d", replica=0)
        assert not quorum.add_vote(0, "d", replica=1)
