"""Unit tests for the PBFT endpoint using an in-memory loopback transport.

Four endpoints (one per replica) for a single instance are wired through a
:class:`LoopbackFabric` that delivers messages synchronously, which keeps the
state machine tests fast and deterministic without the full simulator.
"""

import pytest

from repro.errors import NotLeaderError
from repro.ledger.blocks import Block, SystemState
from repro.ledger.transactions import simple_transfer
from repro.sb.pbft.endpoint import PBFTConfig, PBFTEndpoint
from repro.sb.pbft.messages import Commit, PrePrepare, Prepare
from repro.sb.pbft.slots import DELIVERED_WINDOW


class FakeTimer:
    def __init__(self):
        self.active = True
        self.fired = False

    def cancel(self):
        self.active = False


class LoopbackFabric:
    """Synchronous message fabric connecting the test endpoints."""

    def __init__(self, num_replicas, drop_from=None):
        self.num_replicas = num_replicas
        self.endpoints = {}
        self.drop_from = set(drop_from or [])
        self.timers = []
        self.clock = 0.0

    def transport_for(self, replica_id):
        fabric = self

        class Transport:
            def send(self, destination, message):
                if replica_id in fabric.drop_from:
                    return
                endpoint = fabric.endpoints.get(destination)
                if endpoint is not None:
                    endpoint.handle_message(replica_id, message)

            def broadcast(self, message, include_self=False):
                if replica_id in fabric.drop_from:
                    return
                for other_id, endpoint in fabric.endpoints.items():
                    if other_id == replica_id and not include_self:
                        continue
                    endpoint.handle_message(replica_id, message)

            def set_timer(self, delay, callback):
                timer = FakeTimer()
                fabric.timers.append((timer, callback))
                return timer

            def now(self):
                return fabric.clock

        return Transport()

    def fire_timers(self):
        pending = list(self.timers)
        self.timers.clear()
        for timer, callback in pending:
            if timer.active:
                timer.fired = True
                callback()


def build_group(num_replicas=4, instance=0, drop_from=None, config=None):
    fabric = LoopbackFabric(num_replicas, drop_from=drop_from)
    delivered = {replica: [] for replica in range(num_replicas)}
    for replica in range(num_replicas):
        endpoint = PBFTEndpoint(
            instance_id=instance,
            replica_id=replica,
            num_replicas=num_replicas,
            transport=fabric.transport_for(replica),
            config=config or PBFTConfig(view_change_timeout=1.0),
        )
        endpoint.on_deliver(
            lambda block, replica=replica: delivered[replica].append(block)
        )
        fabric.endpoints[replica] = endpoint
    return fabric, delivered


def make_block(sn, instance=0, tx_id=None):
    return Block.create(
        instance=instance,
        sequence_number=sn,
        transactions=[simple_transfer("a", "b", 1, tx_id=tx_id or f"tx-{sn}")],
        state=SystemState.initial(1),
        proposer=instance,
    )


class TestNormalCase:
    def test_leader_is_instance_index_in_view_zero(self):
        fabric, _ = build_group(instance=2)
        assert fabric.endpoints[0].leader() == 2
        assert fabric.endpoints[2].is_leader()

    def test_broadcast_block_delivers_everywhere(self):
        fabric, delivered = build_group(instance=0)
        fabric.endpoints[0].broadcast_block(make_block(0))
        assert all(len(blocks) == 1 for blocks in delivered.values())
        digests = {blocks[0].digest for blocks in delivered.values()}
        assert len(digests) == 1

    def test_non_leader_cannot_broadcast(self):
        fabric, _ = build_group(instance=0)
        with pytest.raises(NotLeaderError):
            fabric.endpoints[1].broadcast_block(make_block(0))

    def test_delivery_in_sequence_order_despite_out_of_order_commits(self):
        fabric, delivered = build_group(instance=0)
        leader = fabric.endpoints[0]
        leader.broadcast_block(make_block(0))
        leader.broadcast_block(make_block(1))
        leader.broadcast_block(make_block(2))
        for blocks in delivered.values():
            assert [b.sequence_number for b in blocks] == [0, 1, 2]

    def test_duplicate_pre_prepare_does_not_double_deliver(self):
        fabric, delivered = build_group(instance=0)
        leader = fabric.endpoints[0]
        block = make_block(0)
        leader.broadcast_block(block)
        duplicate = PrePrepare(
            instance=0,
            view=0,
            sender=0,
            sequence_number=0,
            block=block,
            digest=block.digest,
        )
        fabric.endpoints[1].handle_message(0, duplicate)
        assert len(delivered[1]) == 1

    def test_message_for_other_instance_ignored(self):
        fabric, delivered = build_group(instance=0)
        foreign = PrePrepare(
            instance=5,
            view=0,
            sender=0,
            sequence_number=0,
            block=make_block(0, instance=5),
            digest="x",
        )
        fabric.endpoints[1].handle_message(0, foreign)
        assert delivered[1] == []

    def test_pre_prepare_from_non_leader_ignored(self):
        fabric, delivered = build_group(instance=0)
        block = make_block(0)
        forged = PrePrepare(
            instance=0,
            view=0,
            sender=2,
            sequence_number=0,
            block=block,
            digest=block.digest,
        )
        for endpoint in fabric.endpoints.values():
            endpoint.handle_message(2, forged)
        assert all(blocks == [] for blocks in delivered.values())

    def test_blocks_delivered_counter(self):
        fabric, _ = build_group(instance=0)
        fabric.endpoints[0].broadcast_block(make_block(0))
        assert fabric.endpoints[3].blocks_delivered == 1


class TestFailureDetectorAndViewChange:
    def test_timeout_triggers_view_change_to_next_leader(self):
        # Replica 0 (the leader) is silent; backups detect the lack of
        # progress and rotate leadership to replica 1.
        fabric, delivered = build_group(instance=0, drop_from=[0])
        for replica in (1, 2, 3):
            fabric.endpoints[replica].notify_pending_work()
        fabric.fire_timers()
        for replica in (1, 2, 3):
            assert fabric.endpoints[replica].view == 1
            assert fabric.endpoints[replica].leader() == 1
            assert fabric.endpoints[replica].view_changes_completed == 1

    def test_new_leader_reproposes_pending_blocks(self):
        fabric, delivered = build_group(instance=0)
        leader = fabric.endpoints[0]
        block = make_block(0)
        # The leader pre-prepares but its commit-phase messages are lost:
        # simulate by delivering the pre-prepare only to replicas 1-3 and then
        # silencing the leader.
        pre_prepare = PrePrepare(
            instance=0,
            view=0,
            sender=0,
            sequence_number=0,
            block=block,
            digest=block.digest,
        )
        fabric.drop_from.add(0)
        for replica in (1, 2, 3):
            fabric.endpoints[replica].handle_message(0, pre_prepare)
        # No quorum of commits is possible without the leader... the slot is
        # stuck until the failure detector rotates the leader, which
        # re-proposes the pending block in the new view.
        for replica in (1, 2, 3):
            fabric.endpoints[replica].notify_pending_work()
        fabric.fire_timers()
        for replica in (1, 2, 3):
            assert [b.digest for b in delivered[replica]] == [block.digest]

    def test_delivery_resets_failure_detector(self):
        fabric, _ = build_group(instance=0)
        backup = fabric.endpoints[1]
        backup.notify_pending_work()
        fabric.endpoints[0].broadcast_block(make_block(0))
        # The timer was cancelled by the delivery, so firing it is a no-op.
        fabric.fire_timers()
        assert backup.view == 0

    def test_progress_after_view_change(self):
        fabric, delivered = build_group(instance=0, drop_from=[0])
        for replica in (1, 2, 3):
            fabric.endpoints[replica].notify_pending_work()
        fabric.fire_timers()
        new_leader = fabric.endpoints[1]
        assert new_leader.is_leader()
        fabric.drop_from.discard(0)
        new_leader.broadcast_block(make_block(0))
        for replica in (1, 2, 3):
            assert len(delivered[replica]) == 1

    def test_quorum_constant(self):
        fabric, _ = build_group(num_replicas=7)
        assert fabric.endpoints[0].fault_tolerance == 2
        assert fabric.endpoints[0].quorum == 5


class TestViewChangeHardening:
    def test_replica_without_armed_timer_joins_on_f_plus_one_votes(self):
        # Leader 0 is silent.  Only replicas 2 and 3 armed their failure
        # detectors (no client request reached replica 1), so without vote
        # joining the quorum of 3 could never form and the instance would
        # stall.  Seeing f + 1 = 2 votes, replica 1 must join — and it is
        # the view-1 leader, so it installs the new view.
        fabric, _ = build_group(instance=0, drop_from=[0])
        for replica in (2, 3):
            fabric.endpoints[replica].notify_pending_work()
        fabric.fire_timers()
        for replica in (1, 2, 3):
            assert fabric.endpoints[replica].view == 1
            assert fabric.endpoints[replica].view_changes_completed == 1

    def test_view_change_escalates_past_a_crashed_new_leader(self):
        # n = 7 (f = 2): replicas 0 and 1 are silent.  The first view change
        # targets view 1 whose leader (replica 1) is also dead, so no NewView
        # ever arrives; the escalation timer must push the vote to view 2,
        # whose leader (replica 2) is alive.
        fabric, _ = build_group(num_replicas=7, instance=0, drop_from=[0, 1])
        for replica in range(2, 7):
            fabric.endpoints[replica].notify_pending_work()
        fabric.fire_timers()  # progress timeouts: everyone votes view 1
        for replica in range(2, 7):
            assert fabric.endpoints[replica].view == 0  # stuck: leader 1 dead
        fabric.fire_timers()  # escalation timers: votes move to view 2
        for replica in range(2, 7):
            assert fabric.endpoints[replica].view == 2
            assert fabric.endpoints[replica].leader() == 2

    def test_new_view_resets_stale_votes_on_reproposed_slots(self):
        from repro.sb.pbft.messages import NewView

        fabric, _ = build_group(instance=0)
        endpoint = fabric.endpoints[2]
        old_block = make_block(0, tx_id="old")
        endpoint.handle_message(
            0,
            PrePrepare(
                instance=0, view=0, sender=0, sequence_number=0,
                block=old_block, digest=old_block.digest,
            ),
        )
        # Forge extra old-view prepares that never reached quorum.
        endpoint.slots.slot(0).record_prepare(9)
        assert 9 in endpoint.slots.slot(0).prepares

        new_block = make_block(0, tx_id="new")
        endpoint._handle_new_view(
            1,
            NewView(
                instance=0, view=1, sender=1,
                reproposals=((0, new_block),),
            ),
        )
        slot = endpoint.slots.slot(0)
        assert slot.digest == new_block.digest
        assert 9 not in slot.prepares  # old-view votes cannot count again

    def test_leader_callback_fires_after_reproposals_occupy_slots(self):
        # The new leader derives its next sequence number from
        # ``slots.highest_started()`` inside the callback; re-proposed slots
        # it never saw pre-prepared must already be present by then, or its
        # fresh proposals would collide with them.
        from repro.sb.pbft.messages import NewView

        fabric, _ = build_group(instance=0)
        endpoint = fabric.endpoints[1]  # leader of view 1
        observed = []
        endpoint.on_leader_change(
            lambda view, leader: observed.append(endpoint.slots.highest_started())
        )
        block = make_block(5, tx_id="unseen")
        endpoint._handle_new_view(
            1,
            NewView(instance=0, view=1, sender=1, reproposals=((5, block),)),
        )
        assert observed == [5]

    def test_timeout_with_no_remaining_work_does_not_change_view(self):
        # Execution happens above the endpoint, so the last delivery's
        # progress bookkeeping can run *before* its transactions turn
        # terminal — leaving a timer armed with nothing actually owed.  The
        # timeout must re-check the probe and disarm instead of spuriously
        # rotating the leader of a healthy idle instance.
        fabric, _ = build_group(instance=0)
        backup = fabric.endpoints[2]
        pending = {"value": True}
        backup.pending_work_probe = lambda: pending["value"]
        backup.notify_pending_work()
        pending["value"] = False  # work finished after the timer was armed
        fabric.fire_timers()
        assert backup.view == 0
        assert backup._voted_view == 0

        # With work genuinely owed, the same timer does start a view change.
        pending["value"] = True
        backup.notify_pending_work()
        fabric.fire_timers()
        assert backup._voted_view == 1


class TestPrunedSlots:
    """Delivered slots are dropped behind a trailing window; nothing that
    arrives for them afterwards brings them back."""

    DELIVERED = DELIVERED_WINDOW + 4

    def group_with_history(self):
        fabric, delivered = build_group(instance=0)
        blocks = [make_block(sn) for sn in range(self.DELIVERED)]
        for block in blocks:
            fabric.endpoints[0].broadcast_block(block)
        assert all(len(seen) == self.DELIVERED for seen in delivered.values())
        return fabric, delivered, blocks

    def test_late_votes_for_a_pruned_slot_neither_recreate_nor_redeliver(self):
        fabric, delivered, blocks = self.group_with_history()
        backup = fabric.endpoints[2]
        assert len(backup.slots) == DELIVERED_WINDOW and 0 not in backup.slots
        stale = dict(
            instance=0, view=0, sequence_number=0, digest=blocks[0].digest
        )
        for sender in (0, 1, 3):
            backup.handle_message(sender, Prepare(sender=sender, **stale))
            backup.handle_message(sender, Commit(sender=sender, **stale))
        # A replayed proposal for it is as dead as the votes.
        backup.handle_message(
            0, PrePrepare(sender=0, block=blocks[0], **stale)
        )
        assert 0 not in backup.slots and len(backup.slots) == DELIVERED_WINDOW
        assert len(delivered[2]) == self.DELIVERED
        assert backup.blocks_delivered == self.DELIVERED

    def test_view_change_after_pruning_reproposes_every_undelivered_block(self):
        fabric, delivered, _ = self.group_with_history()
        # Two more proposals reach two of the backups before the leader
        # falls silent: pre-prepared there, one prepare short of a quorum.
        fabric.drop_from.add(0)
        stuck = [make_block(self.DELIVERED + offset) for offset in range(2)]
        for block in stuck:
            pre_prepare = PrePrepare(
                instance=0,
                view=0,
                sender=0,
                sequence_number=block.sequence_number,
                block=block,
                digest=block.digest,
            )
            for replica in (2, 3):
                fabric.endpoints[replica].handle_message(0, pre_prepare)
        backup = fabric.endpoints[2]
        assert [sn for sn, _ in backup.slots.undelivered_proposals()] == [
            block.sequence_number for block in stuck
        ]
        for replica in (1, 2, 3):
            fabric.endpoints[replica].notify_pending_work()
        fabric.fire_timers()
        for replica in (1, 2, 3):
            assert fabric.endpoints[replica].view == 1
            # Exactly the stuck blocks, in order, on top of the old history:
            # nothing pruned was re-proposed, nothing pending was lost.
            assert [b.digest for b in delivered[replica][self.DELIVERED :]] == [
                block.digest for block in stuck
            ]
            assert len(fabric.endpoints[replica].slots) == DELIVERED_WINDOW
