"""Message-level PBFT endpoint implementing the Sequenced Broadcast interface.

One :class:`PBFTEndpoint` lives on every replica for every SB instance.  The
endpoint is a pure state machine: it talks to the outside world only through
the :class:`~repro.sb.interface.Transport` its hosting replica provides, which
makes it directly unit-testable without a simulator.

The implementation follows PBFT's normal-case three-phase exchange
(pre-prepare / prepare / commit, quorum ``2f + 1``) and a timeout-driven view
change used as the failure detector described in Sec. V-B: when a replica
knows of pending work for the instance and observes no delivery within the
timeout, it votes to replace the leader; on ``2f + 1`` votes the next leader
installs the new view and re-proposes undelivered blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import NotLeaderError
from repro.ledger.blocks import Block
from repro.sb.interface import SequencedBroadcastEndpoint, Transport
from repro.sb.pbft.messages import (
    Commit,
    NewView,
    PBFTMessage,
    PrePrepare,
    Prepare,
    ViewChange,
)
from repro.sb.pbft.slots import SlotTable


@dataclass
class PBFTConfig:
    """Tunables for the PBFT back-end.

    Attributes:
        view_change_timeout: Seconds without progress (while work is pending)
            before a replica votes to change the leader.  The paper uses 10 s.
        watermark_window: Maximum number of in-flight sequence numbers a
            leader may have outstanding.
    """

    view_change_timeout: float = 10.0
    watermark_window: int = 128


class PBFTEndpoint(SequencedBroadcastEndpoint):
    """PBFT state machine for one instance on one replica."""

    def __init__(
        self,
        instance_id: int,
        replica_id: int,
        num_replicas: int,
        transport: Transport,
        config: PBFTConfig | None = None,
    ) -> None:
        super().__init__(instance_id, replica_id)
        self.num_replicas = num_replicas
        self.fault_tolerance = (num_replicas - 1) // 3
        self.transport = transport
        self.config = config or PBFTConfig()
        self.view = 0
        self.slots = SlotTable()
        self._view_change_votes: dict[int, dict[int, ViewChange]] = {}
        self._progress_timer: Any = None
        #: Escalation timer armed while a view change is in flight: if the
        #: prospective leader never announces the new view (it crashed too,
        #: or the NewView was lost), the vote moves on to the next view.
        self._view_change_timer: Any = None
        self._view_changing = False
        #: Highest view this replica has broadcast a ViewChange vote for.
        self._voted_view = 0
        self._leader_change_callback: Callable[[int, int], None] | None = None
        #: Optional host-supplied probe: returns True while this instance has
        #: pending work (bucketed transactions, or globally ordered blocks
        #: waiting on this instance's frontier).  Used to re-arm the failure
        #: detector after each delivery, so a leader that crashes *mid-run*
        #: is still detected even if no further client request arrives.
        self.pending_work_probe: Callable[[], bool] | None = None
        #: Optional hook fired when a slot first reaches the prepared state
        #: (tracing); receives ``(block, view)``.  ``None`` costs nothing.
        self._prepared_callback: Callable[[Block, int], None] | None = None
        #: Counters exposed for tests and metrics.
        self.view_changes_completed = 0
        self.blocks_delivered = 0

    # -- leadership ---------------------------------------------------------

    @property
    def quorum(self) -> int:
        """Votes needed to prepare/commit/change view (2f + 1)."""
        return 2 * self.fault_tolerance + 1

    def leader_for_view(self, view: int) -> int:
        """Round-robin leader rotation anchored at the instance index."""
        return (self.instance_id + view) % self.num_replicas

    def leader(self) -> int:
        return self.leader_for_view(self.view)

    def on_leader_change(self, callback: Callable[[int, int], None]) -> None:
        """Register a callback invoked as ``callback(view, leader)``."""
        self._leader_change_callback = callback

    def on_prepared(self, callback: Callable[[Block, int], None]) -> None:
        """Register a callback invoked as ``callback(block, view)`` when a
        slot first reaches the prepared state (2f + 1 matching prepares)."""
        self._prepared_callback = callback

    def start(self) -> None:
        """Nothing to arm until work is pending (see :meth:`notify_pending_work`)."""

    def fast_forward_view(self, view: int) -> None:
        """Install ``view`` without running the view-change protocol.

        Used by crash recovery: the pre-crash incarnation (or a peer's state
        transfer) proved this view was installed cluster-wide, so a restarted
        replica adopts it directly instead of voting its way up from view 0.
        Only moves forward; the endpoint must not be mid view change.
        """
        if view <= self.view:
            return
        self.view = view
        self._view_changing = False
        self._voted_view = max(self._voted_view, view)
        self._cancel_view_change_timer()
        self._view_change_votes = {
            pending_view: votes
            for pending_view, votes in self._view_change_votes.items()
            if pending_view > view
        }

    # -- leader path ----------------------------------------------------------

    def broadcast_block(self, block: Block) -> None:
        """Leader proposes ``block`` at its sequence number (sb-broadcast)."""
        if not self.is_leader():
            raise NotLeaderError(
                f"replica {self.replica_id} is not the leader of instance "
                f"{self.instance_id} in view {self.view}"
            )
        in_flight = self.slots.highest_started() - self.slots.next_to_deliver + 1
        if in_flight >= self.config.watermark_window:
            # The caller is expected to respect the watermark; proposals past
            # it are still accepted to keep the simulation simple.
            pass
        message = PrePrepare(
            instance=self.instance_id,
            view=self.view,
            sender=self.replica_id,
            sequence_number=block.sequence_number,
            block=block,
            digest=block.digest,
        )
        self.transport.broadcast(message)
        self._handle_pre_prepare(self.replica_id, message)

    # -- message handling ------------------------------------------------------

    def handle_message(self, sender: int, message: Any) -> None:
        """Route a PBFT message to the appropriate handler."""
        if not isinstance(message, PBFTMessage) or message.instance != self.instance_id:
            return
        if isinstance(message, PrePrepare):
            self._handle_pre_prepare(sender, message)
        elif isinstance(message, Prepare):
            self._handle_prepare(sender, message)
        elif isinstance(message, Commit):
            self._handle_commit(sender, message)
        elif isinstance(message, ViewChange):
            self._handle_view_change(sender, message)
        elif isinstance(message, NewView):
            self._handle_new_view(sender, message)

    def _handle_pre_prepare(self, sender: int, message: PrePrepare) -> None:
        if message.view != self.view or self._view_changing:
            return
        if sender != self.leader():
            return
        if message.block is None:
            return
        slot = self.slots.slot(message.sequence_number)
        if slot is None:
            return  # delivered and pruned long ago
        if slot.pre_prepared and slot.digest != message.digest:
            # Conflicting proposal for the same slot: evidence of a faulty
            # leader; the failure detector will eventually rotate it out.
            return
        slot.view = message.view
        slot.block = message.block
        slot.digest = message.digest
        slot.pre_prepared = True
        slot.started_at = self.transport.now()
        prepare = Prepare(
            instance=self.instance_id,
            view=self.view,
            sender=self.replica_id,
            sequence_number=message.sequence_number,
            digest=message.digest,
        )
        self.transport.broadcast(prepare)
        self._handle_prepare(self.replica_id, prepare)

    def _handle_prepare(self, sender: int, message: Prepare) -> None:
        if message.view != self.view or self._view_changing:
            return
        slot = self.slots.slot(message.sequence_number)
        if slot is None or (slot.digest and message.digest != slot.digest):
            return
        count = slot.record_prepare(sender)
        if slot.pre_prepared and not slot.prepared and count >= self.quorum:
            slot.prepared = True
            if self._prepared_callback is not None and slot.block is not None:
                self._prepared_callback(slot.block, self.view)
            commit = Commit(
                instance=self.instance_id,
                view=self.view,
                sender=self.replica_id,
                sequence_number=message.sequence_number,
                digest=slot.digest,
            )
            self.transport.broadcast(commit)
            self._handle_commit(self.replica_id, commit)

    def _handle_commit(self, sender: int, message: Commit) -> None:
        if self._view_changing:
            return
        slot = self.slots.slot(message.sequence_number)
        if slot is None or (slot.digest and message.digest != slot.digest):
            return
        count = slot.record_commit(sender)
        if slot.prepared and not slot.committed and count >= self.quorum:
            slot.committed = True
            self._deliver_ready()

    def _deliver_ready(self) -> None:
        for slot in self.slots.deliverable():
            if slot.block is None:
                continue
            self.blocks_delivered += 1
            self._record_progress()
            self._emit_delivery(slot.block)

    def drain_deliverable(self) -> None:
        """Deliver committed slots now contiguous with the frontier.

        Delivery is normally driven by incoming commits, so a slot that
        was committed while delivery waited on a lower hole only drains
        when the *next* message arrives.  A recovery fast-forward fills
        the hole from state transfer instead — with no further traffic
        guaranteed, the host must drain explicitly or the committed
        suffix strands above the new frontier.
        """
        self._deliver_ready()

    # -- failure detection / view change ---------------------------------------

    def notify_pending_work(self) -> None:
        """Arm the failure detector: work exists, progress is expected.

        Called by the hosting replica when transactions are waiting in this
        instance's bucket (censorship detection) or when a proposal is known
        to be in flight.
        """
        if self._progress_timer is not None and getattr(
            self._progress_timer, "active", False
        ):
            return
        self._progress_timer = self.transport.set_timer(
            self.config.view_change_timeout, self._on_progress_timeout
        )

    def _record_progress(self) -> None:
        if self._progress_timer is not None and getattr(
            self._progress_timer, "active", False
        ):
            self._progress_timer.cancel()
        self._progress_timer = None
        # Progress consumed the timer; if the host says more work is still
        # pending, immediately re-arm so the detector keeps watching.  This is
        # what lets a mid-run leader crash be detected without relying on a
        # fresh client request to re-arm the timer.
        if self.pending_work_probe is not None and self.pending_work_probe():
            self.notify_pending_work()

    def _on_progress_timeout(self) -> None:
        self._progress_timer = None
        if self._view_changing:
            return
        if self.pending_work_probe is not None and not self.pending_work_probe():
            # The work that armed this timer was finished after the last
            # delivery's progress bookkeeping ran (execution happens above
            # the endpoint).  Nothing is owed, so a view change would be
            # spurious churn; stay disarmed until new work arrives.
            return
        self._start_view_change(self.view + 1)

    def _start_view_change(self, new_view: int) -> None:
        new_view = max(new_view, self._voted_view + 1, self.view + 1)
        self._view_changing = True
        self._voted_view = new_view
        vote = ViewChange(
            instance=self.instance_id,
            view=new_view,
            sender=self.replica_id,
            last_delivered=self.slots.next_to_deliver - 1,
            pending=tuple(self.slots.undelivered_proposals()),
        )
        # Arm the escalation timer before broadcasting: if this view change
        # stalls (the prospective leader is also faulty or its NewView is
        # lost), the vote advances to the next view instead of wedging.
        self._cancel_view_change_timer()
        self._view_change_timer = self.transport.set_timer(
            self.config.view_change_timeout, self._on_view_change_timeout
        )
        self.transport.broadcast(vote)
        self._handle_view_change(self.replica_id, vote)

    def _cancel_view_change_timer(self) -> None:
        if self._view_change_timer is not None and getattr(
            self._view_change_timer, "active", False
        ):
            self._view_change_timer.cancel()
        self._view_change_timer = None

    def _on_view_change_timeout(self) -> None:
        self._view_change_timer = None
        if self._view_changing:
            self._start_view_change(self._voted_view + 1)

    def _handle_view_change(self, sender: int, message: ViewChange) -> None:
        if message.view <= self.view:
            return
        votes = self._view_change_votes.setdefault(message.view, {})
        votes[sender] = message
        if (
            message.view > self._voted_view
            and len(votes) > self.fault_tolerance
        ):
            # f + 1 replicas already voted for this (higher) view, so at
            # least one honest replica detected a failure: join the view
            # change without waiting for the local timeout.
            self._start_view_change(message.view)
            if message.view <= self.view:
                return  # joining completed the quorum and installed the view
        if len(votes) < self.quorum:
            return
        new_leader = self.leader_for_view(message.view)
        if new_leader == self.replica_id:
            self._install_new_view(message.view, votes)
        # Non-leaders wait for the NewView announcement; if the new leader is
        # also faulty the escalation timer fires and the view advances again.

    def _install_new_view(self, view: int, votes: dict[int, ViewChange]) -> None:
        reproposals: dict[int, Block] = {}
        for vote in votes.values():
            for sequence_number, block in vote.pending:
                if sequence_number >= self.slots.next_to_deliver:
                    reproposals.setdefault(sequence_number, block)
        announcement = NewView(
            instance=self.instance_id,
            view=view,
            sender=self.replica_id,
            reproposals=tuple(sorted(reproposals.items())),
        )
        self.transport.broadcast(announcement)
        self._handle_new_view(self.replica_id, announcement)

    def _handle_new_view(self, sender: int, message: NewView) -> None:
        if message.view < self.view:
            return
        if sender != self.leader_for_view(message.view):
            return
        self.view = message.view
        self._view_changing = False
        self._voted_view = max(self._voted_view, message.view)
        self._cancel_view_change_timer()
        self._view_change_votes = {
            view: votes
            for view, votes in self._view_change_votes.items()
            if view > self.view
        }
        self.view_changes_completed += 1
        self._record_progress()
        # Re-run agreement for the blocks the old leader left unfinished.
        # Votes recorded for these slots in the old view must not count
        # towards the new view's quorums, so undelivered re-proposed slots
        # are reset before the new pre-prepare is processed.
        for sequence_number, block in message.reproposals:
            slot = self.slots.slot(sequence_number)
            if slot is None:
                continue  # delivered here long ago; nothing left to vote on
            if not slot.delivered:
                slot.block = None
                slot.digest = ""
                slot.pre_prepared = False
                slot.prepared = False
                slot.committed = False
                slot.prepares.clear()
                slot.commits.clear()
            pre_prepare = PrePrepare(
                instance=self.instance_id,
                view=self.view,
                sender=self.leader(),
                sequence_number=sequence_number,
                block=block,
                digest=block.digest,
            )
            self._handle_pre_prepare(self.leader(), pre_prepare)
            if self.is_leader():
                self.transport.broadcast(pre_prepare)
        # Announce the leader change only after the re-proposals occupy their
        # slots: a new leader derives its next sequence number from
        # ``slots.highest_started()`` inside this callback, and announcing
        # earlier would let fresh proposals collide with re-proposed slots
        # this replica had not seen pre-prepared before the view change.
        if self._leader_change_callback is not None:
            self._leader_change_callback(self.view, self.leader())
