"""Tests for PBFT slot bookkeeping."""

from repro.ledger.blocks import Block, SystemState
from repro.ledger.transactions import simple_transfer
from repro.sb.pbft.slots import DELIVERED_WINDOW, SlotTable


def make_block(sn, instance=0):
    return Block.create(
        instance=instance,
        sequence_number=sn,
        transactions=[simple_transfer("a", "b", 1)],
        state=SystemState.initial(1),
        proposer=0,
    )


class TestSlotTable:
    def test_slot_creation_on_demand(self):
        table = SlotTable()
        slot = table.slot(3)
        assert slot.sequence_number == 3
        assert 3 in table
        assert 4 not in table

    def test_vote_recording_counts_distinct_senders(self):
        table = SlotTable()
        slot = table.slot(0)
        assert slot.record_prepare(1) == 1
        assert slot.record_prepare(1) == 1
        assert slot.record_prepare(2) == 2
        assert slot.record_commit(1) == 1

    def test_delivery_requires_contiguous_committed_slots(self):
        table = SlotTable()
        for sn in (0, 1, 2):
            slot = table.slot(sn)
            slot.block = make_block(sn)
        table.slot(1).committed = True
        assert table.deliverable() == []
        table.slot(0).committed = True
        delivered = table.deliverable()
        assert [s.sequence_number for s in delivered] == [0, 1]
        assert table.next_to_deliver == 2

    def test_deliverable_is_idempotent(self):
        table = SlotTable()
        slot = table.slot(0)
        slot.block = make_block(0)
        slot.committed = True
        assert len(table.deliverable()) == 1
        assert table.deliverable() == []

    def test_undelivered_proposals_listed_in_order(self):
        table = SlotTable()
        for sn in (2, 0, 1):
            slot = table.slot(sn)
            slot.block = make_block(sn)
            slot.pre_prepared = True
        table.slot(0).committed = True
        table.deliverable()
        pending = table.undelivered_proposals()
        assert [sn for sn, _ in pending] == [1, 2]

    def test_highest_started(self):
        table = SlotTable()
        assert table.highest_started() == -1
        table.slot(5)
        assert table.highest_started() == 5

    def deliver_up_to(self, table, count):
        for sn in range(table.next_to_deliver, count):
            slot = table.slot(sn)
            slot.block = make_block(sn)
            slot.committed = True
        return table.deliverable()

    def test_delivered_slots_are_kept_only_inside_the_trailing_window(self):
        table = SlotTable()
        self.deliver_up_to(table, 3 * DELIVERED_WINDOW)
        table.slot(3 * DELIVERED_WINDOW).pre_prepared = True  # in flight
        assert len(table) == DELIVERED_WINDOW + 1
        assert 2 * DELIVERED_WINDOW - 1 not in table
        assert 2 * DELIVERED_WINDOW in table
        # Three times the traffic, the same table.
        self.deliver_up_to(table, 9 * DELIVERED_WINDOW)
        assert len(table) == DELIVERED_WINDOW

    def test_pruned_sequence_numbers_are_not_resurrected(self):
        table = SlotTable()
        self.deliver_up_to(table, DELIVERED_WINDOW + 5)
        assert table.slot(4) is None
        assert 4 not in table
        assert table.slot(5).delivered  # still inside the window

    def test_fast_forward_prunes_what_it_skips(self):
        table = SlotTable()
        table.slot(0).pre_prepared = True
        table.fast_forward(DELIVERED_WINDOW + 10)
        assert 0 not in table and table.slot(9) is None
        assert table.undelivered_proposals() == []
