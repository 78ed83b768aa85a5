"""Ablation variant: Orthrus without the non-blocking escrow interaction.

The escrow mechanism is one of the load-bearing design choices.  This
variant answers "what if we had not built Solution-II?": a pending contract
transaction *locks* its payers until it is globally ordered, so payment
transactions behind it in the same partial log must wait instead of being
evaluated against the escrowed balance.

Everything else — partitioning, partial logs, dynamic global ordering,
multi-payer atomicity — is inherited unchanged from :class:`OrthrusCore`, so
benchmark differences between the two cores isolate the contribution of the
escrow-based non-blocking interaction (Challenge-II / Solution-II in the
paper).
"""

from __future__ import annotations

from repro.core.config import CoreConfig
from repro.core.orthrus import OrthrusCore
from repro.core.outcomes import TxOutcome
from repro.ledger.blocks import Block
from repro.ledger.state import StateStore
from repro.ledger.transactions import Transaction


class BlockingOrthrusCore(OrthrusCore):
    """Orthrus with payer locking instead of escrow for pending contracts."""

    name = "orthrus-blocking"

    def __init__(self, config: CoreConfig, store: StateStore | None = None) -> None:
        super().__init__(config, store)
        #: Payers locked by contract transactions awaiting global ordering.
        self._locked_payers: dict[str, str] = {}

    # -- partial path with locking ------------------------------------------------

    def _process_tx_partial(self, tx: Transaction, instance: int) -> TxOutcome | None:
        if not tx.is_payment:
            outcome = super()._process_tx_partial(tx, instance)
            # A contract transaction that escrowed successfully also locks its
            # payers until the global path releases them.
            if not self.status_of(tx.tx_id).terminal:
                for payer in tx.payers():
                    if self.partitioner.assign_object(payer) == instance:
                        self._locked_payers.setdefault(payer, tx.tx_id)
            return outcome
        blocked_by = self._blocking_contract(tx, instance)
        if blocked_by is not None:
            # Without Solution-II the payment cannot be evaluated until the
            # blocking contract confirms; park it for the global path to
            # re-drive once the lock holder resolves.
            self._blocked_payments.setdefault(blocked_by, []).append((tx, instance))
            return None
        return super()._process_tx_partial(tx, instance)

    def _blocking_contract(self, tx: Transaction, instance: int) -> str | None:
        for payer in tx.payers():
            if self.partitioner.assign_object(payer) != instance:
                continue
            holder = self._locked_payers.get(payer)
            if holder is not None and not self.status_of(holder).terminal:
                return holder
        return None

    # -- global path releases locks --------------------------------------------------

    @property
    def _blocked_payments(self) -> dict[str, list[tuple[Transaction, int]]]:
        if not hasattr(self, "_blocked_payments_store"):
            self._blocked_payments_store: dict[str, list[tuple[Transaction, int]]] = {}
        return self._blocked_payments_store

    def on_block_delivered(self, block: Block) -> list[TxOutcome]:
        outcomes = super().on_block_delivered(block)
        outcomes.extend(self._release_unblocked())
        return outcomes

    def _release_unblocked(self) -> list[TxOutcome]:
        released: list[TxOutcome] = []
        for holder in list(self._blocked_payments):
            if not self.status_of(holder).terminal:
                continue
            for payer, lock_holder in list(self._locked_payers.items()):
                if lock_holder == holder:
                    del self._locked_payers[payer]
            for tx, instance in self._blocked_payments.pop(holder):
                outcome = super()._process_tx_partial(tx, instance)
                if outcome is not None:
                    released.append(outcome)
        return released
