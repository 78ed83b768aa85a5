"""Transactions: payment and contract classes (Sec. III-B).

A transaction is ``tx = (O, id, sigma)``: a set of object operations, a unique
identifier and the owner signatures that authorise decrements on owned
objects.  Payment transactions involve only owned objects; contract
transactions may additionally touch shared objects and therefore require
global ordering.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.crypto.digest import escape_json_string, sha256_hex
from repro.crypto.signatures import Signature
from repro.ledger.objects import ObjectOperation, ObjectType, OperationKind

#: Payload size used throughout the paper's evaluation (bytes).
DEFAULT_PAYLOAD_BYTES = 500

_tx_counter = itertools.count()


def next_transaction_id(prefix: str = "tx") -> str:
    """Generate a process-unique transaction identifier."""
    return f"{prefix}-{next(_tx_counter):012d}"


def reset_transaction_counter() -> None:
    """Reset the id counter (tests only; keeps golden ids stable)."""
    global _tx_counter
    _tx_counter = itertools.count()


class TransactionType(enum.Enum):
    """Payment (conflict-free) vs contract (general non-commutative)."""

    PAYMENT = "payment"
    CONTRACT = "contract"


@dataclass(slots=True, eq=False)
class Transaction:
    """A client transaction.

    Slotted, and ``signatures``/``metadata`` default to ``None`` rather than
    an empty dict each: almost every transaction carries neither, so a
    transaction in flight is one collector-tracked object plus its
    operations, on every replica.  Identity is the ``tx_id`` (see
    ``__eq__``/``__hash__`` below).

    Attributes:
        tx_id: Unique identifier.
        operations: Object operations this transaction performs.
        tx_type: Payment or contract.
        payload_size: Bytes of client payload carried (500 in the paper).
        client_id: Submitting client (set by the workload/client layer).
        signatures: Owner signatures for owned-object decrements, keyed by
            the owning account (``None``: unsigned).
        submitted_at: Simulated submission time (filled in by the client).
        metadata: Free-form JSON annotations (``None``: none).
    """

    tx_id: str
    operations: tuple[ObjectOperation, ...]
    tx_type: TransactionType
    payload_size: int = DEFAULT_PAYLOAD_BYTES
    client_id: str | None = None
    signatures: Mapping[str, Signature] | None = None
    submitted_at: float | None = None
    metadata: Mapping[str, Any] | None = None
    #: Lazily memoized content digest and owned-decrement slice of
    #: ``operations`` (both immutable after construction).
    _digest_memo: str | None = field(default=None, init=False, repr=False)
    _decrements_memo: list[ObjectOperation] | None = field(
        default=None, init=False, repr=False
    )

    # -- classification helpers -------------------------------------------

    @property
    def is_payment(self) -> bool:
        """True for conflict-free payment transactions."""
        return self.tx_type is TransactionType.PAYMENT

    @property
    def is_contract(self) -> bool:
        """True for general (non-commutative) contract transactions."""
        return self.tx_type is TransactionType.CONTRACT

    def payers(self) -> list[str]:
        """Keys of owned objects this transaction decrements (the payers)."""
        return sorted(
            {op.key for op in self.operations if op.is_owned_decrement}
        )

    def payees(self) -> list[str]:
        """Keys of objects this transaction increments."""
        return sorted({op.key for op in self.operations if op.is_increment})

    def shared_keys(self) -> list[str]:
        """Keys of shared objects this transaction touches."""
        return sorted(
            {
                op.key
                for op in self.operations
                if op.object_type is ObjectType.SHARED
            }
        )

    @property
    def is_multi_payer(self) -> bool:
        """True when more than one owned object is decremented."""
        return len(self.payers()) > 1

    def decrement_operations(self) -> list[ObjectOperation]:
        """All owned decremental operations (the escrow targets).

        Memoized: escrow checks, partitioning and validation all re-ask this
        on the hot path, and ``operations`` is immutable after construction.
        """
        memo = self._decrements_memo
        if memo is None:
            memo = [op for op in self.operations if op.is_owned_decrement]
            self._decrements_memo = memo
        return memo

    def increment_operations(self) -> list[ObjectOperation]:
        """All incremental operations."""
        return [op for op in self.operations if op.is_increment]

    def total_debit(self) -> int:
        """Sum of all owned decrements (tokens leaving payer accounts)."""
        return sum(op.amount for op in self.decrement_operations())

    def total_credit(self) -> int:
        """Sum of all increments (tokens entering payee accounts)."""
        return sum(op.amount for op in self.increment_operations())

    @property
    def size_bytes(self) -> int:
        """Wire size estimate used by the bandwidth model."""
        return self.payload_size

    def digest_fields(self) -> dict[str, Any]:
        """Canonical fields for hashing."""
        return {
            "tx_id": self.tx_id,
            "type": self.tx_type.value,
            "operations": [op.digest_fields() for op in self.operations],
        }

    def canonical_render(self) -> bytes:
        """Canonical bytes, byte-identical to sorted-key JSON of
        :meth:`digest_fields` (keys are pre-sorted constants, so only the
        values are interpolated; property-tested in ``tests/crypto``)."""
        ops = ", ".join(
            '{"amount": %d, "key": %s, "kind": "%s", "type": "%s"}'
            % (op.amount, escape_json_string(op.key), op.kind.value, op.object_type.value)
            for op in self.operations
        )
        return (
            '{"operations": [%s], "tx_id": %s, "type": "%s"}'
            % (ops, escape_json_string(self.tx_id), self.tx_type.value)
        ).encode("utf-8")

    @property
    def digest(self) -> str:
        """Content digest of the transaction.

        Computed on first access and memoized: every field the digest covers
        (``tx_id``, ``tx_type``, the ``operations`` tuple) is immutable after
        construction, an invariant the digest property tests re-check by
        comparing the memo against a fresh recomputation.
        """
        memo = self._digest_memo
        if memo is None:
            memo = sha256_hex(self.canonical_render())
            self._digest_memo = memo
        return memo

    def __hash__(self) -> int:
        return hash(self.tx_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transaction):
            return NotImplemented
        return self.tx_id == other.tx_id


# -- factory helpers -------------------------------------------------------


def payment(
    payers: Mapping[str, int] | Sequence[tuple[str, int]],
    payees: Mapping[str, int] | Sequence[tuple[str, int]],
    *,
    tx_id: str | None = None,
    client_id: str | None = None,
    payload_size: int = DEFAULT_PAYLOAD_BYTES,
) -> Transaction:
    """Build a payment transaction.

    Args:
        payers: Mapping (or pair sequence) of payer account -> amount debited.
        payees: Mapping (or pair sequence) of payee account -> amount credited.
        tx_id: Optional explicit id; generated when omitted.
        client_id: Submitting client identity.
        payload_size: Payload bytes carried by the transaction.

    The debits and credits are kept as provided; balance conservation
    (sum of debits == sum of credits) is the caller's responsibility and is
    asserted by the validator for workload-generated traffic.
    """
    payer_items = list(payers.items()) if isinstance(payers, Mapping) else list(payers)
    payee_items = list(payees.items()) if isinstance(payees, Mapping) else list(payees)
    operations: list[ObjectOperation] = []
    for key, amount in payer_items:
        operations.append(
            ObjectOperation(
                key=key,
                kind=OperationKind.DECREMENT,
                amount=int(amount),
                object_type=ObjectType.OWNED,
            )
        )
    for key, amount in payee_items:
        operations.append(
            ObjectOperation(
                key=key,
                kind=OperationKind.INCREMENT,
                amount=int(amount),
                object_type=ObjectType.OWNED,
            )
        )
    return Transaction(
        tx_id=tx_id or next_transaction_id(),
        operations=tuple(operations),
        tx_type=TransactionType.PAYMENT,
        payload_size=payload_size,
        client_id=client_id,
    )


def simple_transfer(
    payer: str,
    payee: str,
    amount: int,
    *,
    tx_id: str | None = None,
    client_id: str | None = None,
) -> Transaction:
    """Single-payer, single-payee payment (the paper's tx1/tx2/tx3 examples)."""
    return payment({payer: amount}, {payee: amount}, tx_id=tx_id, client_id=client_id)


def contract_call(
    caller_debits: Mapping[str, int] | Sequence[tuple[str, int]],
    shared_updates: Mapping[str, int] | Sequence[tuple[str, int]],
    *,
    credits: Mapping[str, int] | Sequence[tuple[str, int]] | None = None,
    tx_id: str | None = None,
    client_id: str | None = None,
    payload_size: int = DEFAULT_PAYLOAD_BYTES,
) -> Transaction:
    """Build a contract transaction.

    Args:
        caller_debits: Owned accounts charged by the call (payer -> amount).
        shared_updates: Shared objects assigned new values (key -> value).
        credits: Optional owned accounts credited by the call.
        tx_id: Optional explicit id.
        client_id: Submitting client identity.
        payload_size: Payload bytes carried by the transaction.
    """
    debit_items = (
        list(caller_debits.items())
        if isinstance(caller_debits, Mapping)
        else list(caller_debits)
    )
    shared_items = (
        list(shared_updates.items())
        if isinstance(shared_updates, Mapping)
        else list(shared_updates)
    )
    credit_items: list[tuple[str, int]] = []
    if credits is not None:
        credit_items = (
            list(credits.items()) if isinstance(credits, Mapping) else list(credits)
        )

    operations: list[ObjectOperation] = []
    for key, amount in debit_items:
        operations.append(
            ObjectOperation(
                key=key,
                kind=OperationKind.DECREMENT,
                amount=int(amount),
                object_type=ObjectType.OWNED,
            )
        )
    for key, value in shared_items:
        operations.append(
            ObjectOperation(
                key=key,
                kind=OperationKind.ASSIGN,
                amount=int(value),
                object_type=ObjectType.SHARED,
            )
        )
    for key, amount in credit_items:
        operations.append(
            ObjectOperation(
                key=key,
                kind=OperationKind.INCREMENT,
                amount=int(amount),
                object_type=ObjectType.OWNED,
            )
        )
    return Transaction(
        tx_id=tx_id or next_transaction_id("ctx"),
        operations=tuple(operations),
        tx_type=TransactionType.CONTRACT,
        payload_size=payload_size,
        client_id=client_id,
    )


def classify(operations: Iterable[ObjectOperation]) -> TransactionType:
    """Infer the transaction type from its operations.

    A transaction is a payment when every operation is a commutative
    increment/decrement on owned objects; anything touching shared objects or
    using non-commutative operations is a contract transaction.
    """
    for op in operations:
        if op.object_type is ObjectType.SHARED or not op.is_commutative:
            return TransactionType.CONTRACT
    return TransactionType.PAYMENT
