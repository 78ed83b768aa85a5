"""Transaction and block validation (the ``validateTx`` step of Algorithm 1).

Replicas verify structural well-formedness, amount sanity, type consistency
and — when a PKI is supplied — the owner signatures authorising decrements on
owned objects.  Leaders additionally validate blocks proposed by other leaders
(spoofing-attack detection in Sec. V-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.keys import PublicKeyInfrastructure
from repro.crypto.signatures import verify
from repro.errors import ValidationError
from repro.ledger.blocks import Block
from repro.ledger.objects import ObjectType, OperationKind
from repro.ledger.transactions import Transaction, TransactionType


@dataclass
class ValidationReport:
    """Outcome of validating one transaction or block."""

    valid: bool
    errors: list[str] = field(default_factory=list)

    def require(self) -> None:
        """Raise :class:`ValidationError` when invalid."""
        if not self.valid:
            raise ValidationError("; ".join(self.errors))


class TransactionValidator:
    """Checks transactions before they are admitted to buckets."""

    def __init__(
        self,
        pki: PublicKeyInfrastructure | None = None,
        *,
        require_signatures: bool = False,
        require_balanced_payments: bool = True,
    ) -> None:
        self._pki = pki
        self._require_signatures = require_signatures and pki is not None
        self._require_balanced = require_balanced_payments

    def validate(self, tx: Transaction) -> ValidationReport:
        """Validate a single transaction."""
        errors: list[str] = []
        if not tx.tx_id:
            errors.append("transaction id is empty")
        if not tx.operations:
            errors.append("transaction has no operations")
        if not any(op.object_type is ObjectType.OWNED for op in tx.operations):
            errors.append("every transaction must involve at least one owned object")
        for op in tx.operations:
            if op.kind in (OperationKind.INCREMENT, OperationKind.DECREMENT):
                if op.amount < 0:
                    errors.append(
                        f"negative amount {op.amount} on {op.key!r} is not allowed"
                    )
            if op.object_type is ObjectType.SHARED and tx.is_payment:
                errors.append(
                    f"payment transaction touches shared object {op.key!r}"
                )
            if op.kind is OperationKind.ASSIGN and tx.is_payment:
                errors.append("payment transaction contains a non-commutative assign")
        if (
            self._require_balanced
            and tx.tx_type is TransactionType.PAYMENT
            and tx.total_debit() != tx.total_credit()
        ):
            errors.append(
                f"unbalanced payment: debits {tx.total_debit()} != "
                f"credits {tx.total_credit()}"
            )
        if self._require_signatures:
            errors.extend(self._check_signatures(tx))
        return ValidationReport(valid=not errors, errors=errors)

    def _check_signatures(self, tx: Transaction) -> list[str]:
        errors: list[str] = []
        assert self._pki is not None
        for payer in tx.payers():
            signature = (tx.signatures or {}).get(payer)
            if signature is None:
                errors.append(f"missing signature from payer {payer!r}")
                continue
            if not verify(self._pki, signature, tx):
                errors.append(f"invalid signature from payer {payer!r}")
        return errors


class BlockValidator:
    """Checks blocks delivered by SB instances (spoofing detection)."""

    def __init__(self, tx_validator: TransactionValidator | None = None) -> None:
        self._tx_validator = tx_validator or TransactionValidator()

    def validate(self, block: Block, *, expected_instance: int | None = None) -> ValidationReport:
        """Validate a block's structure and its transactions."""
        errors: list[str] = []
        if block.sequence_number < 0:
            errors.append(f"negative sequence number {block.sequence_number}")
        if expected_instance is not None and block.instance != expected_instance:
            errors.append(
                f"block claims instance {block.instance}, expected {expected_instance}"
            )
        seen: set[str] = set()
        for tx in block.transactions:
            if tx.tx_id in seen:
                errors.append(f"duplicate transaction {tx.tx_id} in block")
            seen.add(tx.tx_id)
            report = self._tx_validator.validate(tx)
            if not report.valid:
                errors.extend(f"{tx.tx_id}: {msg}" for msg in report.errors)
        return ValidationReport(valid=not errors, errors=errors)
