"""Escrow mechanism (Algorithm 2 of the paper).

The escrow log ``elog`` temporarily reserves the funds a transaction's
decremental operations need.  The reservation is applied to the state store
immediately (the balance drops), but the entry stays in the log until the
transaction's fate is known:

* ``commit_escrow`` makes every reservation of the transaction permanent by
  simply dropping the log entries (the debit already happened).
* ``abort_escrow`` undoes every reservation, refunding the payers.

This gives Orthrus both of its escrow use cases: atomicity of multi-payer
payments split across instances (Solution-I) and non-blocking interaction
between pending contract transactions and subsequent payments (Solution-II).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import EscrowError
from repro.ledger.objects import ObjectOperation
from repro.ledger.state import StateStore
from repro.ledger.transactions import Transaction


@dataclass(frozen=True)
class EscrowEntry:
    """One reservation: ``(object key, transaction)`` plus the amount held."""

    key: str
    tx_id: str
    amount: int


@dataclass
class EscrowResult:
    """Outcome of an escrow attempt."""

    success: bool
    entry: EscrowEntry | None = None
    reason: str = ""


class EscrowLog:
    """The ``elog`` of Algorithm 2, bound to one replica's state store."""

    def __init__(self, store: StateStore) -> None:
        self._store = store
        #: ``tx_id -> {key: amount}``, both levels in escrow-insertion order,
        #: so settling a transaction touches only its own reservations.
        self._held: dict[str, dict[str, int]] = {}
        #: Counters used by metrics/ablation benches.
        self.escrows_attempted = 0
        self.escrows_failed = 0
        self.commits = 0
        self.aborts = 0

    # -- Algorithm 2 primitives --------------------------------------------

    def escrow(self, operation: ObjectOperation, tx: Transaction) -> EscrowResult:
        """Attempt to escrow ``operation`` for ``tx`` (function ``escrow``).

        Applies the decrement to the object when the post-operation value
        satisfies the object's condition, and records the reservation.
        A duplicate escrow of the same (object, transaction) pair is a no-op
        success, which keeps redelivery idempotent.
        """
        self.escrows_attempted += 1
        held = self._held.get(tx.tx_id)
        if held is not None and operation.key in held:
            entry = EscrowEntry(operation.key, tx.tx_id, held[operation.key])
            return EscrowResult(True, entry, "already escrowed")
        if not operation.is_owned_decrement:
            raise EscrowError(
                "escrow only applies to owned decremental operations, got "
                f"{operation.kind.value} on {operation.key!r}"
            )
        obj = self._store.get(operation.key)
        candidate = obj.value - operation.amount
        if not obj.satisfies_condition(candidate):
            self.escrows_failed += 1
            return EscrowResult(
                False,
                None,
                f"insufficient funds on {operation.key!r}: balance {obj.value}, "
                f"requested {operation.amount}",
            )
        self._store.debit(operation.key, operation.amount)
        if held is None:
            held = self._held[tx.tx_id] = {}
        held[operation.key] = operation.amount
        entry = EscrowEntry(key=operation.key, tx_id=tx.tx_id, amount=operation.amount)
        return EscrowResult(True, entry)

    def is_escrowed(self, key: str, tx: Transaction) -> bool:
        """Whether ``(key, tx)`` currently holds a reservation."""
        held = self._held.get(tx.tx_id)
        return held is not None and key in held

    def all_escrowed(self, tx: Transaction) -> bool:
        """Function ``allEscrowed``: every owned decrement of ``tx`` reserved."""
        for operation in tx.operations:
            if operation.is_owned_decrement and not self.is_escrowed(
                operation.key, tx
            ):
                return False
        return True

    def commit_escrow(self, tx: Transaction) -> int:
        """Function ``commitEscrow``: make ``tx``'s reservations permanent.

        Returns the number of entries removed from the log.
        """
        held = self._held.pop(tx.tx_id, None)
        if not held:
            return 0
        self.commits += 1
        return len(held)

    def abort_escrow(self, tx: Transaction) -> int:
        """Function ``abortEscrow``: undo and drop ``tx``'s reservations.

        Refunds in the order the reservations were made.  Returns the number
        of entries refunded.
        """
        held = self._held.pop(tx.tx_id, None)
        if not held:
            return 0
        for key, amount in held.items():
            self._store.credit(key, amount)
        self.aborts += 1
        return len(held)

    # -- inspection ----------------------------------------------------------

    def entries_for_transaction(self, tx: Transaction) -> list[EscrowEntry]:
        """All reservations currently held for ``tx``, in escrow order."""
        held = self._held.get(tx.tx_id, {})
        return [EscrowEntry(key, tx.tx_id, amount) for key, amount in held.items()]

    def entries_for_key(self, key: str) -> list[EscrowEntry]:
        """All reservations currently held against object ``key``."""
        return [entry for entry in self if entry.key == key]

    def pending_amount(self, key: str) -> int:
        """Total amount currently reserved against object ``key``."""
        return sum(entry.amount for entry in self.entries_for_key(key))

    def total_reserved(self) -> int:
        """Total amount reserved across all objects (for conservation checks)."""
        return sum(sum(held.values()) for held in self._held.values())

    def dump_entries(self) -> list[list]:
        """Serialise live reservations as ``[key, tx_id, amount]`` rows
        (sorted, for the durable snapshot format)."""
        return sorted([entry.key, entry.tx_id, entry.amount] for entry in self)

    def load_entries(self, rows: Iterable[list]) -> None:
        """Replace the log's reservations with rows from :meth:`dump_entries`.

        The store balances are *not* touched: a snapshot's object values
        already reflect the debits these reservations applied.
        """
        self._held = {}
        for key, tx_id, amount in rows:
            self._held.setdefault(tx_id, {})[key] = int(amount)

    def __len__(self) -> int:
        return sum(len(held) for held in self._held.values())

    def __iter__(self) -> Iterator[EscrowEntry]:
        """Every reservation, grouped by transaction."""
        for tx_id, held in self._held.items():
            for key, amount in held.items():
                yield EscrowEntry(key, tx_id, amount)
