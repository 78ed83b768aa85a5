"""Object-centric data model (Sec. III-B of the paper).

Objects are long-lived records such as accounts.  Each object carries a
``key`` (unique identifier), its current ``value``, a ``con`` condition that
must hold after any operation (for accounts: the balance may not go below
zero), and a ``type`` marking it as *owned* (a specific owner must authorise
decrements) or *shared* (accessible from smart contracts).

Transactions do not embed objects directly; they reference them through
:class:`ObjectOperation`, which names the object, the operation kind and the
amount/argument the operation carries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.crypto.digest import escape_json_string


class ObjectType(enum.Enum):
    """Whether an object is owned by a specific account or shared."""

    OWNED = "owned"
    SHARED = "shared"


class OperationKind(enum.Enum):
    """Operations a transaction can request on an object.

    ``INCREMENT`` and ``DECREMENT`` are the commutative payment operations the
    partial-ordering path exploits; ``ASSIGN`` and ``CONTRACT_CALL`` are the
    non-commutative operations that force global ordering; ``READ`` never
    changes state.
    """

    INCREMENT = "increment"
    DECREMENT = "decrement"
    ASSIGN = "assign"
    READ = "read"
    CONTRACT_CALL = "contract_call"


#: Operation kinds that change the value of the object they touch.
MUTATING_KINDS = frozenset(
    {
        OperationKind.INCREMENT,
        OperationKind.DECREMENT,
        OperationKind.ASSIGN,
        OperationKind.CONTRACT_CALL,
    }
)

#: Operation kinds that commute with each other on distinct payers.
COMMUTATIVE_KINDS = frozenset({OperationKind.INCREMENT, OperationKind.DECREMENT})


class ObjectOperation(NamedTuple):
    """One object reference inside a transaction.

    A named tuple: immutable and hashable like the frozen dataclass it
    replaces, but one object per operation (no instance ``__dict__``) and a
    C-level constructor — a replica decodes every operation of every
    transaction, and each one stays live until its block is executed.

    Attributes:
        key: Identifier of the object (an account address or contract slot).
        kind: Operation to perform.
        amount: Token amount for increment/decrement, or the value to assign.
        object_type: Owned or shared, as declared by the transaction.
    """

    key: str
    kind: OperationKind
    amount: int = 0
    object_type: ObjectType = ObjectType.OWNED

    @property
    def is_decrement(self) -> bool:
        """True for decremental operations (the paper's escrow trigger)."""
        return self.kind is OperationKind.DECREMENT

    @property
    def is_increment(self) -> bool:
        """True for incremental operations."""
        return self.kind is OperationKind.INCREMENT

    @property
    def is_owned_decrement(self) -> bool:
        """True when this operation requires the owner's authorisation."""
        return self.object_type is ObjectType.OWNED and self.is_decrement

    @property
    def is_commutative(self) -> bool:
        """True for operations that commute across distinct payers."""
        return self.kind in COMMUTATIVE_KINDS

    def digest_fields(self) -> dict[str, Any]:
        """Canonical fields for hashing."""
        return {
            "key": self.key,
            "kind": self.kind.value,
            "amount": self.amount,
            "type": self.object_type.value,
        }


@dataclass
class LedgerObject:
    """Stored state of one object in a replica's state store.

    Attributes:
        key: Unique identifier.
        value: Current value (account balance or contract slot contents).
        object_type: Owned or shared.
        condition: Minimum value the object may hold after any operation
            (the paper's ``con`` attribute; 0 for accounts).
        version: Monotonic counter bumped on every successful mutation,
            used by tests and the checkpointing digest.
    """

    key: str
    value: int = 0
    object_type: ObjectType = ObjectType.OWNED
    condition: int = 0
    version: int = 0
    metadata: dict[str, Any] = field(default_factory=dict)

    def satisfies_condition(self, candidate_value: int) -> bool:
        """Whether ``candidate_value`` respects the object's condition."""
        return candidate_value >= self.condition

    def digest_fields(self) -> dict[str, Any]:
        """Canonical fields for hashing."""
        return {
            "key": self.key,
            "value": self.value,
            "type": self.object_type.value,
            "condition": self.condition,
        }

    def canonical_render(self) -> bytes:
        """Canonical bytes, byte-identical to sorted-key JSON of
        :meth:`digest_fields` (property-tested in ``tests/crypto``).

        Unlike transactions and blocks, ledger objects are mutable, so their
        digest is *not* memoized here — the state store caches it per
        ``(key, version)`` instead.
        """
        return (
            '{"condition": %d, "key": %s, "type": "%s", "value": %d}'
            % (
                self.condition,
                escape_json_string(self.key),
                self.object_type.value,
                self.value,
            )
        ).encode("utf-8")


def owned_account(key: str, balance: int = 0) -> LedgerObject:
    """Convenience constructor for an owned account object."""
    return LedgerObject(key=key, value=balance, object_type=ObjectType.OWNED)


def shared_record(key: str, value: int = 0) -> LedgerObject:
    """Convenience constructor for a shared (contract) object."""
    return LedgerObject(
        key=key,
        value=value,
        object_type=ObjectType.SHARED,
        condition=-(2**62),
    )
