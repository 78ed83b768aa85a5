"""Transaction buckets feeding the SB instances (Sec. V-A).

Each bucket is an append-only queue for backups; the instance's leader may
additionally *pull* transactions when forming a block.  Duplicate submissions
are ignored, and a transaction is purged the moment it reaches a terminal
status (``ConsensusCore._set_status``; epoch garbage collection sweeps again).

Purging is lazy: it only moves the purged ids into a ghost
set (O(ids), not O(queue)), and the stale queue entries are skipped when the
scan reaches them (or dropped wholesale once ghosts outnumber live entries).
An id can occupy at most one queue slot at any time — ``push``/``requeue``/
``defer`` all dedupe against the live-member set — which is what makes the
ghost set sufficient to identify stale entries.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.ledger.transactions import Transaction

#: Ghost entries tolerated before the queue is physically compacted.
_COMPACT_MIN = 64


class Bucket:
    """Pending transactions assigned to one SB instance."""

    def __init__(self, instance: int) -> None:
        self.instance = instance
        self._queue: deque[Transaction] = deque()
        self._members: set[str] = set()
        #: ids pulled by the leader but not yet confirmed (kept for requeue).
        self._in_flight: dict[str, Transaction] = {}
        #: ids purged while queued; their single stale entry is still in
        #: ``_queue`` and is skipped (and forgotten) when encountered.
        self._ghosts: set[str] = set()

    def _evict_ghost(self, tx_id: str) -> None:
        """Physically drop the stale entry for ``tx_id`` (rare: the id is
        being re-added before its ghost was scanned past)."""
        self._ghosts.discard(tx_id)
        self._queue = deque(tx for tx in self._queue if tx.tx_id != tx_id)

    def _maybe_compact(self) -> None:
        if len(self._ghosts) > _COMPACT_MIN and len(self._ghosts) > len(self._members):
            self._queue = deque(
                tx for tx in self._queue if tx.tx_id not in self._ghosts
            )
            self._ghosts.clear()

    def push(self, tx: Transaction) -> bool:
        """Append a transaction; returns False for duplicates."""
        if tx.tx_id in self._members or tx.tx_id in self._in_flight:
            return False
        if tx.tx_id in self._ghosts:
            self._evict_ghost(tx.tx_id)
        self._queue.append(tx)
        self._members.add(tx.tx_id)
        return True

    def pull_one(self) -> Transaction | None:
        """Leader-only: remove and return the oldest pending transaction."""
        queue = self._queue
        ghosts = self._ghosts
        while queue:
            tx = queue.popleft()
            if ghosts and tx.tx_id in ghosts:
                ghosts.discard(tx.tx_id)
                continue
            self._members.discard(tx.tx_id)
            self._in_flight[tx.tx_id] = tx
            return tx
        return None

    def pull(self, max_count: int) -> list[Transaction]:
        """Leader-only: remove up to ``max_count`` oldest transactions."""
        batch: list[Transaction] = []
        while len(batch) < max_count:
            tx = self.pull_one()
            if tx is None:
                break
            batch.append(tx)
        return batch

    def requeue(self, txs: Iterable[Transaction]) -> int:
        """Return pulled-but-unordered transactions to the front of the queue.

        Used after a view change when the old leader's proposals are lost.
        """
        returned = 0
        for tx in reversed(list(txs)):
            self._in_flight.pop(tx.tx_id, None)
            if tx.tx_id in self._members:
                continue
            if tx.tx_id in self._ghosts:
                self._evict_ghost(tx.tx_id)
            self._queue.appendleft(tx)
            self._members.add(tx.tx_id)
            returned += 1
        return returned

    def defer(self, txs: Iterable[Transaction]) -> int:
        """Return pulled transactions to the *back* of the queue.

        Used by leader batch selection for transactions that are currently
        unaffordable: requeueing them at the front would make the bounded scan
        window re-examine the same unaffordable prefix forever and starve
        affordable transactions deeper in the bucket.  Deferred transactions
        cycle behind everything already queued and are re-considered once the
        scan reaches them again (or garbage-collected at the epoch boundary).
        """
        deferred = 0
        for tx in txs:
            self._in_flight.pop(tx.tx_id, None)
            if tx.tx_id in self._members:
                continue
            if tx.tx_id in self._ghosts:
                self._evict_ghost(tx.tx_id)
            self._queue.append(tx)
            self._members.add(tx.tx_id)
            deferred += 1
        return deferred

    def in_flight_txs(self) -> list[Transaction]:
        """Transactions pulled by the leader and not yet confirmed."""
        return list(self._in_flight.values())

    def mark_confirmed(self, tx_ids: Iterable[str]) -> None:
        """Drop confirmed transactions from the in-flight tracking set."""
        for tx_id in tx_ids:
            self._in_flight.pop(tx_id, None)

    def purge(self, tx_ids: Iterable[str]) -> int:
        """Remove queued transactions whose ids appear in ``tx_ids``.

        Called by garbage collection for transactions that were confirmed via
        another instance or will never execute (Sec. V-D).  O(len(tx_ids)):
        the queue entries become ghosts and are skipped lazily.
        """
        members = self._members
        drop = {tx_id for tx_id in tx_ids if tx_id in members}
        if not drop:
            return 0
        members -= drop
        self._ghosts |= drop
        self._maybe_compact()
        return len(drop)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self._members

    def peek_all(self) -> list[Transaction]:
        """Copy of the queued transactions (oldest first), for inspection."""
        if not self._ghosts:
            return list(self._queue)
        return [tx for tx in self._queue if tx.tx_id not in self._ghosts]
