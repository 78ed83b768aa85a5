"""Partial logs (``plog``) and the processed-frontier bookkeeping.

Every instance has one partial log per replica: the blocks that instance has
delivered and the replica has not processed yet, indexed by sequence number.
The execution engine walks each partial log in order; a position may only be
processed once the block's referenced system state ``b.S`` is covered by what
the replica has already processed, which realises the cross-instance
references of Sec. II-A.
"""

from __future__ import annotations

from repro.ledger.blocks import Block, SystemState


class PartialLog:
    """Blocks one SB instance delivered, held until they are processed.

    A block is kept from :meth:`add` to :meth:`mark_processed` and no longer:
    what stays behind is the processed frontier, which is all that duplicate
    detection, snapshots and the execution engine need from the past.
    """

    def __init__(self, instance: int) -> None:
        self.instance = instance
        self._blocks: dict[int, Block] = {}
        self._next_to_process = 0
        self._highest_delivered = -1
        #: Sequence numbers processed ahead of a gap.  Orthrus processes each
        #: log strictly in order and PBFT delivers in order, so this stays
        #: empty there; the baselines process a block the moment it arrives,
        #: and the pipeline simulator can deliver an instance's blocks out of
        #: order.
        self._processed_ahead: set[int] = set()

    def add(self, block: Block) -> bool:
        """Record a delivered block; returns False for duplicates."""
        sequence_number = block.sequence_number
        if (
            sequence_number < self._next_to_process
            or sequence_number in self._blocks
            or sequence_number in self._processed_ahead
        ):
            return False
        self._blocks[sequence_number] = block
        self._highest_delivered = max(self._highest_delivered, sequence_number)
        return True

    def get(self, sequence_number: int) -> Block | None:
        """Block at ``sequence_number`` if delivered and not yet processed."""
        return self._blocks.get(sequence_number)

    @property
    def next_to_process(self) -> int:
        """Lowest sequence number the execution engine has not settled."""
        return self._next_to_process

    @property
    def highest_delivered(self) -> int:
        """Highest delivered sequence number (-1 when empty)."""
        return self._highest_delivered

    def peek_next(self) -> Block | None:
        """The next block awaiting processing, if it has been delivered."""
        return self._blocks.get(self._next_to_process)

    def mark_processed(self, sequence_number: int) -> None:
        """Settle one position and release its block."""
        self._blocks.pop(sequence_number, None)
        if sequence_number != self._next_to_process:
            self._processed_ahead.add(sequence_number)
            return
        self._next_to_process += 1
        while self._next_to_process in self._processed_ahead:
            self._processed_ahead.discard(self._next_to_process)
            self._next_to_process += 1

    def fast_forward(self, next_to_process: int) -> None:
        """Resume after a snapshot restore: everything below
        ``next_to_process`` is already processed (the blocks themselves are
        not re-materialised — they live in the WAL, not the snapshot)."""
        if next_to_process > self._next_to_process:
            self._next_to_process = next_to_process
            self._highest_delivered = max(
                self._highest_delivered, next_to_process - 1
            )

    def __len__(self) -> int:
        return len(self._blocks)


class ProcessedFrontier:
    """Tracks, per instance, the highest sequence number already processed."""

    def __init__(self, num_instances: int) -> None:
        self._frontier = [-1] * num_instances

    def advance(self, instance: int, sequence_number: int) -> None:
        """Record that ``(instance, sequence_number)`` has been processed."""
        self._frontier[instance] = max(self._frontier[instance], sequence_number)

    def restore(self, values: list[int]) -> None:
        """Overwrite the frontier (snapshot restore)."""
        if len(values) != len(self._frontier):
            raise ValueError("frontier width mismatch")
        self._frontier = [int(v) for v in values]

    def covers(self, state: SystemState) -> bool:
        """Whether every reference in ``state`` has been processed locally."""
        if len(state) != len(self._frontier):
            return False
        return all(
            have >= need
            for have, need in zip(self._frontier, state.sequence_numbers)
        )

    def as_state(self) -> SystemState:
        """Snapshot of the frontier as a :class:`SystemState`."""
        return SystemState(tuple(self._frontier))

    def __getitem__(self, instance: int) -> int:
        return self._frontier[instance]
