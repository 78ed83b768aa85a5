"""Baseline Multi-BFT cores: execute everything at global-ordering time.

ISS, Mir-BFT, RCC, DQBFT and Ladon differ in *how* blocks obtain their global
position (pre-determined positions, a sequencer instance, or dynamic ranks),
but they all share the execution discipline Orthrus relaxes: a transaction is
only executed once its block is globally ordered and every earlier position
has been executed.  :class:`GlobalExecutionCore` captures that shared
behaviour; the per-protocol subclasses plug in the right global orderer and
the fault-handling traits the evaluation section exercises.
"""

from __future__ import annotations

from collections import deque

from repro.core.config import CoreConfig
from repro.core.interfaces import ConsensusCore
from repro.core.outcomes import ConfirmationPath, TxOutcome, TxStatus
from repro.core.partition import Partitioner, TransactionPartitioner
from repro.ledger.blocks import Block
from repro.ledger.objects import ObjectType, OperationKind
from repro.ledger.state import StateStore
from repro.ledger.transactions import Transaction
from repro.ordering.base import GlobalOrderer, derive_conflicts
from repro.ordering.predetermined import PredeterminedGlobalOrderer


class GlobalExecutionCore(ConsensusCore):
    """Shared baseline behaviour: sequential execution in global-log order."""

    name = "global-execution"
    #: Pre-determined-ordering protocols stall on gaps left by stragglers.
    predetermined_ordering = False
    #: Whether a detected fault forces an epoch change (Mir-BFT's weakness).
    epoch_change_on_fault = False

    def __init__(
        self,
        config: CoreConfig,
        store: StateStore | None = None,
        *,
        global_orderer: GlobalOrderer,
        partitioner: Partitioner | None = None,
    ) -> None:
        store = store if store is not None else StateStore()
        super().__init__(
            config=config,
            store=store,
            partitioner=partitioner or TransactionPartitioner(config.num_instances),
            global_orderer=global_orderer,
        )
        self._execution_queue: deque[Block] = deque()
        self.global_confirmations = 0
        self.pending_checkpoints: list = []

    # -- delivery entry point --------------------------------------------------

    def on_block_delivered(self, block: Block) -> list[TxOutcome]:
        self._record_delivery(block)
        plog = self.plogs[block.instance]
        if not plog.add(block):
            return []
        # Executed from the global log, so the partial log has nothing to
        # hold: it only remembers the position (duplicate detection).
        plog.mark_processed(block.sequence_number)
        self.frontier.advance(block.instance, block.sequence_number)
        self.epochs.record_processed(block.instance, block.sequence_number)
        if self.global_orderer.wants_conflicts:
            conflicts = derive_conflicts(block, self.partitioner.assign_object)
            newly_ordered = self.global_orderer.on_deliver(block, conflicts)
        else:
            newly_ordered = self.global_orderer.on_deliver(block)
        self._execution_queue.extend(newly_ordered)
        outcomes = self._drain_execution_queue()
        self.pending_checkpoints.extend(self._maybe_complete_epochs())
        return outcomes

    def _drain_execution_queue(self) -> list[TxOutcome]:
        outcomes: list[TxOutcome] = []
        while self._execution_queue:
            block = self._execution_queue.popleft()
            for tx in block.transactions:
                outcome = self._execute_tx(tx, block.instance)
                if outcome is not None:
                    outcomes.append(outcome)
        return outcomes

    # -- sequential execution ----------------------------------------------------

    def _execute_tx(self, tx: Transaction, instance: int) -> TxOutcome | None:
        if self.status_of(tx.tx_id).terminal:
            return None
        # All-or-nothing: verify every debit is covered before applying any.
        for operation in tx.decrement_operations():
            self.store.get_or_create(operation.key, ObjectType.OWNED)
            if not self.store.can_debit(operation.key, operation.amount):
                self._set_status(tx, TxStatus.REJECTED)
                return TxOutcome(
                    tx=tx,
                    status=TxStatus.REJECTED,
                    path=ConfirmationPath.GLOBAL,
                    instance=instance,
                    reason=f"insufficient funds on {operation.key!r}",
                )
        for operation in tx.operations:
            self._apply(operation)
        self._set_status(tx, TxStatus.COMMITTED)
        self.global_confirmations += 1
        return TxOutcome(
            tx=tx,
            status=TxStatus.COMMITTED,
            path=ConfirmationPath.GLOBAL,
            instance=instance,
        )

    def _apply(self, operation) -> None:
        self.store.get_or_create(operation.key, operation.object_type)
        if operation.kind is OperationKind.DECREMENT:
            self.store.debit(operation.key, operation.amount)
        elif operation.kind is OperationKind.INCREMENT:
            self.store.credit(operation.key, operation.amount)
        elif operation.kind is OperationKind.ASSIGN:
            self.store.assign(operation.key, operation.amount)
        elif operation.kind is OperationKind.CONTRACT_CALL:
            current = self.store.balance_of(operation.key)
            self.store.assign(operation.key, current * 31 + operation.amount)


class PredeterminedExecutionCore(GlobalExecutionCore):
    """Shared wiring for the pre-determined-position protocols.

    ISS, Mir-BFT and RCC all interleave blocks into the round-robin global
    sequence; they differ only in fault-handling traits.  Subclasses set the
    trait flags and inherit the orderer wiring from here instead of each
    re-instantiating :class:`PredeterminedGlobalOrderer`.
    """

    predetermined_ordering = True

    def __init__(self, config: CoreConfig, store: StateStore | None = None) -> None:
        super().__init__(
            config,
            store,
            global_orderer=PredeterminedGlobalOrderer(config.num_instances),
        )
