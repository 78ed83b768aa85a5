"""The Orthrus consensus core (Algorithm 1).

This module implements the paper's primary contribution: hybrid ordering with
concurrent partial ordering for payment transactions and global ordering for
contract transactions, glued together by the escrow mechanism (Algorithm 2).

The core is a pure state machine.  Cluster drivers feed it delivered blocks
(``on_block_delivered``) and it returns the transactions confirmed as a
result, each tagged with the path (partial or global) that confirmed it.

Processing model
----------------
* Every delivered block is appended to its instance's partial log and handed
  to the Ladon-style dynamic global orderer.
* The *partial path* walks each partial log in order.  A block is processed
  once the replica has processed everything the block's referenced state
  ``b.S`` requires.  Processing a block escrows, for each transaction, the
  owned decremental operations assigned to this instance; failed escrows
  abort the transaction everywhere, successful payment escrows confirm the
  transaction as soon as all of its payers are escrowed.
* The *global path* walks the global log.  Contract transactions execute at
  their last occurrence, under the escrow reservations made by the partial
  path; payments are skipped because the partial path already confirmed them.
"""

from __future__ import annotations

from collections import deque

from repro.core.config import CoreConfig
from repro.core.interfaces import ConsensusCore
from repro.core.outcomes import ConfirmationPath, TxOutcome, TxStatus
from repro.core.partition import PayerPartitioner, Partitioner
from repro.ledger.blocks import Block
from repro.ledger.escrow import EscrowLog
from repro.ledger.objects import ObjectType, OperationKind
from repro.ledger.state import StateStore
from repro.ledger.transactions import Transaction
from repro.ordering.base import GlobalOrderer, derive_conflicts
from repro.ordering.dependency import DependencyGlobalOrderer
from repro.ordering.ladon import LadonGlobalOrderer


class OrthrusCore(ConsensusCore):
    """Replica-local Orthrus state machine."""

    name = "orthrus"
    uses_ranks = True

    def __init__(
        self,
        config: CoreConfig,
        store: StateStore | None = None,
        *,
        global_orderer: GlobalOrderer | None = None,
        partitioner: Partitioner | None = None,
    ) -> None:
        store = store if store is not None else StateStore()
        super().__init__(
            config=config,
            store=store,
            partitioner=partitioner or PayerPartitioner(config.num_instances),
            global_orderer=global_orderer or LadonGlobalOrderer(config.num_instances),
        )
        self.escrow = EscrowLog(store)
        #: Globally ordered blocks awaiting execution of their contract txs.
        self._global_queue: deque[Block] = deque()
        #: Remaining glog occurrences before a multi-instance tx executes.
        self._remaining_occurrences: dict[str, int] = {}
        #: Payment/contract confirmations counted per path (for metrics).
        self.partial_confirmations = 0
        self.global_confirmations = 0
        self.pending_checkpoints: list = []
        #: Leader-side bookkeeping for ``pullValidTx``: debits proposed in
        #: blocks this replica created that have not been processed yet.
        self._inflight_debits: dict[str, int] = {}
        self._leader_reserved: dict[tuple[str, int], dict[str, int]] = {}

    # -- leader-side batch selection (pullValidTx, Sec. V-B) --------------------

    def select_batch(self, instance: int, max_count: int | None = None) -> list[Transaction]:
        """Pull the oldest transactions that are valid under the current state.

        The leader only proposes a transaction when every payer assigned to
        this instance can cover it, counting the debits of transactions the
        leader has already proposed but not yet seen processed.  Transactions
        that are not (yet) valid stay in the bucket: they may become valid
        once the payer receives funds from another instance, and are garbage
        collected at the end of the epoch otherwise.  This is what guarantees
        that partial-path execution succeeds identically on every honest
        replica (Lemma 1).

        Only a bounded window at the head of the bucket is scanned per call,
        pulling one transaction at a time and stopping as soon as the batch
        fills — transactions beyond that point are simply never pulled (same
        effect as the former pull-everything-then-requeue round trip, without
        touching O(scan window) entries per call).  Transactions skipped
        because they are currently unaffordable are deferred to the *back* of
        the bucket.  Re-queueing unaffordable transactions at the front would
        pin the scan window on a persistently unaffordable prefix (payer
        drained through another instance) and starve affordable transactions
        queued behind it until epoch garbage collection.
        """
        limit = max_count if max_count is not None else self.config.batch_size
        bucket = self.buckets[instance]
        scan_limit = max(limit * 4, 16)
        batch: list[Transaction] = []
        unaffordable: list[Transaction] = []
        scanned = 0
        while len(batch) < limit and scanned < scan_limit:
            tx = bucket.pull_one()
            if tx is None:
                break
            scanned += 1
            if self.status_of(tx.tx_id).terminal:
                # Submitted again after it executed (the copies queued at
                # submission are purged when the status turns terminal).
                bucket.mark_confirmed((tx.tx_id,))
                continue
            if self._affordable(tx, instance):
                self._reserve_inflight(tx, instance)
                batch.append(tx)
            else:
                unaffordable.append(tx)
        bucket.defer(unaffordable)
        return batch

    def _affordable(self, tx: Transaction, instance: int) -> bool:
        for operation in tx.decrement_operations():
            if self.partitioner.assign_object(operation.key) != instance:
                continue
            if operation.key not in self.store:
                return False
            available = self.store.balance_of(operation.key) - self._inflight_debits.get(
                operation.key, 0
            )
            if available < operation.amount:
                return False
        return True

    def _reserve_inflight(self, tx: Transaction, instance: int) -> None:
        reserved: dict[str, int] = {}
        for operation in tx.decrement_operations():
            if self.partitioner.assign_object(operation.key) != instance:
                continue
            reserved[operation.key] = reserved.get(operation.key, 0) + operation.amount
            self._inflight_debits[operation.key] = (
                self._inflight_debits.get(operation.key, 0) + operation.amount
            )
        if reserved:
            existing = self._leader_reserved.setdefault((tx.tx_id, instance), {})
            for key, amount in reserved.items():
                existing[key] = existing.get(key, 0) + amount

    def on_leadership_lost(self, instance: int) -> int:
        """Release leader-side reservations before requeueing in-flight txs.

        A demoted leader's in-flight debit reservations would otherwise leak
        forever (their blocks may never be delivered), making payers look
        poorer than they are if this replica later leads again.
        """
        for tx in self.buckets[instance].in_flight_txs():
            self._release_inflight(tx.tx_id, instance)
        return super().on_leadership_lost(instance)

    def _release_inflight(self, tx_id: str, instance: int) -> None:
        reserved = self._leader_reserved.pop((tx_id, instance), None)
        if not reserved:
            return
        for key, amount in reserved.items():
            remaining = self._inflight_debits.get(key, 0) - amount
            if remaining > 0:
                self._inflight_debits[key] = remaining
            else:
                self._inflight_debits.pop(key, None)

    # -- delivery entry point -------------------------------------------------

    def on_block_delivered(self, block: Block) -> list[TxOutcome]:
        self._record_delivery(block)
        if not self.plogs[block.instance].add(block):
            return []
        if self.global_orderer.wants_conflicts:
            conflicts = derive_conflicts(block, self.partitioner.assign_object)
            newly_ordered = self.global_orderer.on_deliver(block, conflicts)
        else:
            newly_ordered = self.global_orderer.on_deliver(block)
        self._global_queue.extend(newly_ordered)

        outcomes: list[TxOutcome] = []
        progressed = True
        while progressed:
            partial_progress, partial_outcomes = self._drain_partial_logs()
            global_progress, global_outcomes = self._drain_global_log()
            outcomes.extend(partial_outcomes)
            outcomes.extend(global_outcomes)
            progressed = partial_progress or global_progress
        self.pending_checkpoints.extend(self._maybe_complete_epochs())
        return outcomes

    # -- partial path (plog execution, Algorithm 1 lines 20-30) ---------------

    def _drain_partial_logs(self) -> tuple[bool, list[TxOutcome]]:
        progressed = False
        outcomes: list[TxOutcome] = []
        advanced = True
        while advanced:
            advanced = False
            for plog in self.plogs:
                block = plog.peek_next()
                if block is None:
                    continue
                if not self.frontier.covers(block.state):
                    continue
                outcomes.extend(self._process_block_partial(block))
                plog.mark_processed(block.sequence_number)
                self.frontier.advance(block.instance, block.sequence_number)
                self.epochs.record_processed(block.instance, block.sequence_number)
                advanced = True
                progressed = True
        return progressed, outcomes

    def _process_block_partial(self, block: Block) -> list[TxOutcome]:
        outcomes: list[TxOutcome] = []
        for tx in block.transactions:
            outcome = self._process_tx_partial(tx, block.instance)
            if outcome is not None:
                outcomes.append(outcome)
        return outcomes

    def _process_tx_partial(self, tx: Transaction, instance: int) -> TxOutcome | None:
        # The block containing this transaction is being processed, so any
        # leader-side in-flight reservation has served its purpose.
        self._release_inflight(tx.tx_id, instance)
        if self.status_of(tx.tx_id).terminal:
            return None
        # Escrow the owned decremental operations assigned to this instance.
        for operation in tx.decrement_operations():
            if self.partitioner.assign_object(operation.key) != instance:
                continue
            self.store.get_or_create(operation.key, ObjectType.OWNED)
            result = self.escrow.escrow(operation, tx)
            if not result.success:
                self.escrow.abort_escrow(tx)
                self._set_status(tx, TxStatus.REJECTED)
                return TxOutcome(
                    tx=tx,
                    status=TxStatus.REJECTED,
                    path=ConfirmationPath.PARTIAL,
                    instance=instance,
                    reason=result.reason,
                )
        if tx.is_payment and self.escrow.all_escrowed(tx):
            self.escrow.commit_escrow(tx)
            self._apply_increments(tx)
            self._set_status(tx, TxStatus.COMMITTED)
            self.partial_confirmations += 1
            return TxOutcome(
                tx=tx,
                status=TxStatus.COMMITTED,
                path=ConfirmationPath.PARTIAL,
                instance=instance,
            )
        return None

    # -- global path (glog execution, Algorithm 1 lines 32-41) ----------------

    def _drain_global_log(self) -> tuple[bool, list[TxOutcome]]:
        progressed = False
        outcomes: list[TxOutcome] = []
        while self._global_queue:
            block = self._global_queue[0]
            # A block's transactions may only execute under escrow
            # reservations made by the partial path, so the block must have
            # been partially processed first.
            if self.frontier[block.instance] < block.sequence_number:
                break
            self._global_queue.popleft()
            progressed = True
            for tx in block.transactions:
                outcome = self._process_tx_global(tx, block.instance)
                if outcome is not None:
                    outcomes.append(outcome)
        return progressed, outcomes

    def _process_tx_global(self, tx: Transaction, instance: int) -> TxOutcome | None:
        remaining = self._remaining_occurrences.get(
            tx.tx_id, len(self.partitioner.buckets_for(tx))
        )
        remaining -= 1
        self._remaining_occurrences[tx.tx_id] = remaining
        if remaining > 0:
            # Not the last occurrence in the global log: remove and move on.
            return None
        self._remaining_occurrences.pop(tx.tx_id, None)
        if self.status_of(tx.tx_id).terminal or tx.is_payment:
            # Payments are confirmed by the partial path; aborted transactions
            # were already removed from every log.
            return None
        return self._execute_contract(tx, instance)

    def _execute_contract(self, tx: Transaction, instance: int) -> TxOutcome:
        if not self.escrow.all_escrowed(tx):
            # Some payer could not cover the call: refund and reject.
            self.escrow.abort_escrow(tx)
            self._set_status(tx, TxStatus.REJECTED)
            return TxOutcome(
                tx=tx,
                status=TxStatus.REJECTED,
                path=ConfirmationPath.GLOBAL,
                instance=instance,
                reason="escrow incomplete at global execution",
            )
        self.escrow.commit_escrow(tx)
        self._apply_contract_effects(tx)
        self._apply_increments(tx)
        self._set_status(tx, TxStatus.COMMITTED)
        self.global_confirmations += 1
        return TxOutcome(
            tx=tx,
            status=TxStatus.COMMITTED,
            path=ConfirmationPath.GLOBAL,
            instance=instance,
        )

    # -- state mutation helpers -------------------------------------------------

    def _apply_increments(self, tx: Transaction) -> None:
        for operation in tx.increment_operations():
            if operation.object_type is not ObjectType.OWNED:
                continue  # shared-object effects are applied by the contract path
            self.store.get_or_create(operation.key, ObjectType.OWNED)
            self.store.credit(operation.key, operation.amount)

    def _apply_contract_effects(self, tx: Transaction) -> None:
        for operation in tx.operations:
            if operation.object_type is not ObjectType.SHARED:
                continue
            self.store.get_or_create(operation.key, ObjectType.SHARED)
            if operation.kind is OperationKind.ASSIGN:
                self.store.assign(operation.key, operation.amount)
            elif operation.kind is OperationKind.INCREMENT:
                self.store.credit(operation.key, operation.amount)
            elif operation.kind is OperationKind.DECREMENT:
                self.store.debit(operation.key, operation.amount)
            elif operation.kind is OperationKind.CONTRACT_CALL:
                # Contract calls fold their argument into the slot value in a
                # deterministic (order-dependent) way.
                current = self.store.balance_of(operation.key)
                self.store.assign(operation.key, current * 31 + operation.amount)


class DependencyOrthrusCore(OrthrusCore):
    """Orthrus with the dependency-aware global orderer (``orthrus-dep``).

    Identical partial path and escrow machinery; only the global-ordering
    layer changes.  Non-conflicting blocks release into the global log without
    waiting for the bar, while blocks carrying cross-instance conflict keys
    (shared contract objects, cross-instance payers) keep Ladon's bar
    semantics — which is exactly what keeps replica state stores convergent:
    execution order can only differ across replicas for blocks whose effects
    commute.  The orderer derives conflicts from the payer partitioner's
    bucket assignment, so conflict classification agrees with escrow routing.
    """

    name = "orthrus-dep"

    def __init__(self, config: CoreConfig, store: StateStore | None = None) -> None:
        partitioner = PayerPartitioner(config.num_instances)
        super().__init__(
            config,
            store,
            partitioner=partitioner,
            global_orderer=DependencyGlobalOrderer(
                config.num_instances, key_instance=partitioner.assign_object
            ),
        )
