"""Per-sequence-number bookkeeping for a PBFT instance."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ledger.blocks import Block

#: Delivered slots kept behind the delivery frontier, per instance.  Agreement
#: is over for them; the short window only lets the votes still in flight
#: when a slot delivers (the slowest replica's prepare and commit) land in
#: their slot.  Everything older is dropped as the frontier advances, block
#: and all: a replica's memory follows what is in flight, and its history is
#: the WAL (``ReplicaDurability.wal_blocks_above``), never this table.
DELIVERED_WINDOW = 8


@dataclass(slots=True)
class Slot:
    """Agreement state for one (view, sequence number) slot."""

    sequence_number: int
    view: int = 0
    block: Block | None = None
    digest: str = ""
    pre_prepared: bool = False
    prepares: set[int] = field(default_factory=set)
    commits: set[int] = field(default_factory=set)
    prepared: bool = False
    committed: bool = False
    delivered: bool = False
    started_at: float = 0.0

    def record_prepare(self, sender: int) -> int:
        """Record a prepare vote; returns the current count."""
        self.prepares.add(sender)
        return len(self.prepares)

    def record_commit(self, sender: int) -> int:
        """Record a commit vote; returns the current count."""
        self.commits.add(sender)
        return len(self.commits)


class SlotTable:
    """All slots of one PBFT instance, indexed by sequence number."""

    def __init__(self) -> None:
        self._slots: dict[int, Slot] = {}
        self._next_to_deliver = 0

    def slot(self, sequence_number: int) -> Slot | None:
        """Get or create the slot for ``sequence_number``.

        ``None`` behind the trailing window: that sequence number was
        delivered long ago, and a late or replayed message for it must not
        resurrect an empty slot.
        """
        slot = self._slots.get(sequence_number)
        if slot is None:
            if sequence_number < self._next_to_deliver - DELIVERED_WINDOW:
                return None
            slot = self._slots[sequence_number] = Slot(sequence_number)
        return slot

    def __contains__(self, sequence_number: int) -> bool:
        return sequence_number in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def next_to_deliver(self) -> int:
        """Lowest sequence number that has not been delivered yet."""
        return self._next_to_deliver

    def deliverable(self) -> list[Slot]:
        """Committed slots that can now be delivered in order.

        Advances the delivery pointer over every contiguous committed slot and
        returns them; the caller emits the delivery events.
        """
        ready: list[Slot] = []
        frontier = self._next_to_deliver
        while True:
            slot = self._slots.get(self._next_to_deliver)
            if slot is None or not slot.committed or slot.delivered:
                break
            slot.delivered = True
            ready.append(slot)
            self._next_to_deliver += 1
        self._prune(frontier)
        return ready

    def fast_forward(self, sequence_number: int) -> None:
        """Advance the delivery pointer past externally-recovered slots.

        Crash recovery replays delivered blocks straight into the core (from
        the WAL or a peer's state transfer) without running agreement, so the
        slots below ``sequence_number`` must never be re-proposed or
        re-delivered by this endpoint.  Only moves forward.
        """
        frontier = self._next_to_deliver
        self._next_to_deliver = max(frontier, sequence_number)
        self._prune(frontier)

    def undelivered_proposals(self) -> list[tuple[int, Block]]:
        """Pre-prepared blocks that were never delivered (for view changes)."""
        pending: list[tuple[int, Block]] = []
        for sn in sorted(self._slots):
            slot = self._slots[sn]
            if slot.pre_prepared and not slot.delivered and slot.block is not None:
                pending.append((sn, slot.block))
        return pending

    def highest_started(self) -> int:
        """Highest sequence number with any activity, or -1."""
        return max(self._slots, default=-1)

    def _prune(self, old_frontier: int) -> None:
        """Drop what the advance from ``old_frontier`` pushed more than
        ``DELIVERED_WINDOW`` behind the frontier (delivered, or skipped over
        by :meth:`fast_forward`)."""
        for sequence_number in range(
            old_frontier - DELIVERED_WINDOW, self._next_to_deliver - DELIVERED_WINDOW
        ):
            self._slots.pop(sequence_number, None)
