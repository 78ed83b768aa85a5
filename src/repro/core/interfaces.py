"""Shared machinery for consensus cores.

A *consensus core* is the pure (simulator-independent) state machine of one
replica: buckets, partial logs, global ordering, execution and epochs.  Both
cluster drivers (message-level and pipeline/quorum fidelity) feed cores the
same inputs — submitted transactions and delivered blocks — and consume the
same outputs — batches to propose and transaction outcomes — so Orthrus and
every baseline protocol can run unchanged under either fidelity.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.buckets import Bucket
from repro.core.config import CoreConfig
from repro.core.epochs import Checkpoint, EpochTracker
from repro.core.logs import PartialLog, ProcessedFrontier
from repro.core.outcomes import TxOutcome, TxStatus
from repro.core.partition import Partitioner
from repro.errors import ValidationError
from repro.ledger.blocks import Block, SystemState
from repro.ledger.state import StateStore
from repro.ledger.transactions import Transaction
from repro.ledger.validation import TransactionValidator
from repro.ordering.base import GlobalOrderer, RankTracker


class ConsensusCore:
    """Base class for the Orthrus core and the baseline protocol cores."""

    #: Human-readable protocol name (overridden by subclasses).
    name = "abstract"
    #: Whether leaders must attach dynamic-ordering ranks to blocks.
    uses_ranks = False

    def __init__(
        self,
        config: CoreConfig,
        store: StateStore,
        partitioner: Partitioner,
        global_orderer: GlobalOrderer,
    ) -> None:
        self.config = config
        self.store = store
        self.partitioner = partitioner
        self.global_orderer = global_orderer
        self.buckets = [Bucket(i) for i in range(config.num_instances)]
        self.plogs = [PartialLog(i) for i in range(config.num_instances)]
        self.frontier = ProcessedFrontier(config.num_instances)
        self.epochs = EpochTracker(config.num_instances, config.epoch_length)
        self.rank_tracker = RankTracker()
        self._validator = TransactionValidator(
            require_balanced_payments=config.require_balanced_payments
        )
        self._status: dict[str, TxStatus] = {}
        #: Bucket indices each non-terminal transaction is assigned to, and
        #: the per-instance count of such transactions: the O(1) "work owed"
        #: signal the failure detector needs, and the buckets to clear when
        #: the transaction turns terminal.
        self._pending_assignments: dict[str, tuple[int, ...]] = {}
        self._pending_per_instance: list[int] = [0] * config.num_instances
        self._delivered_frontier = [-1] * config.num_instances
        #: Counters used by metrics and tests.
        self.submitted_count = 0
        self.rejected_on_submit = 0
        self.confirmed_count = 0

    # -- client-facing ------------------------------------------------------

    def submit(self, tx: Transaction) -> list[int]:
        """Validate ``tx`` and add it to its bucket(s).

        Returns the bucket indices the transaction was added to.  Raises
        :class:`ValidationError` when validation is enabled and fails.
        """
        if self.config.validate_transactions:
            report = self._validator.validate(tx)
            if not report.valid:
                self.rejected_on_submit += 1
                raise ValidationError("; ".join(report.errors))
        buckets = self.partitioner.buckets_for(tx)
        added: list[int] = []
        for index in buckets:
            if self.buckets[index].push(tx):
                added.append(index)
        if added:
            self.submitted_count += 1
            self._status.setdefault(tx.tx_id, TxStatus.PENDING)
            if (
                tx.tx_id not in self._pending_assignments
                and not self.status_of(tx.tx_id).terminal
            ):
                self._pending_assignments[tx.tx_id] = tuple(added)
                for index in added:
                    self._pending_per_instance[index] += 1
        return added

    # -- leader-facing ------------------------------------------------------

    def pull_batch(self, instance: int, max_count: int | None = None) -> list[Transaction]:
        """Pull the oldest pending transactions from an instance's bucket."""
        limit = max_count if max_count is not None else self.config.batch_size
        return self.buckets[instance].pull(limit)

    def select_batch(self, instance: int, max_count: int | None = None) -> list[Transaction]:
        """Leader-side batch selection (the paper's ``pullValidTx``).

        The base implementation simply pulls the oldest transactions; cores
        whose correctness depends on leaders only proposing transactions that
        are valid under the referenced state (Orthrus) override this.
        """
        return self.pull_batch(instance, max_count)

    def requeue(self, instance: int, txs: Sequence[Transaction]) -> int:
        """Return unordered transactions to the bucket (after view change)."""
        return self.buckets[instance].requeue(txs)

    def on_leadership_lost(self, instance: int) -> int:
        """React to this replica losing leadership of ``instance``.

        Transactions the demoted leader pulled but never saw delivered go
        back to the front of the bucket, so they survive into the new view
        (either the new leader's re-proposals deliver them — they then turn
        terminal and are skipped — or this replica re-proposes them when it
        regains leadership).  Returns the number of requeued transactions.
        """
        bucket = self.buckets[instance]
        pending = [
            tx
            for tx in bucket.in_flight_txs()
            if not self.status_of(tx.tx_id).terminal
        ]
        return bucket.requeue(pending)

    def bucket_size(self, instance: int) -> int:
        """Number of pending transactions in an instance's bucket."""
        return len(self.buckets[instance])

    def pending_work(self, instance: int) -> int:
        """Non-terminal transactions assigned to ``instance`` (queued or
        pulled-but-unconfirmed).  The failure detector's progress predicate:
        while this is positive the instance owes a delivery."""
        return self._pending_per_instance[instance]

    def total_pending(self) -> int:
        """Pending transactions summed over all buckets."""
        return sum(len(bucket) for bucket in self.buckets)

    def delivered_state(self) -> SystemState:
        """Frontier of delivered blocks (used by leaders as ``b.S``)."""
        return SystemState(tuple(self._delivered_frontier))

    def next_rank(self) -> int:
        """Rank to attach to the next proposed block (dynamic ordering only)."""
        return self.rank_tracker.next_rank()

    # -- delivery-facing ----------------------------------------------------

    def on_block_delivered(self, block: Block) -> list[TxOutcome]:
        """Feed a delivered block and return the resulting confirmations."""
        raise NotImplementedError

    def _record_delivery(self, block: Block) -> None:
        """Common bookkeeping every core performs on delivery."""
        self._delivered_frontier[block.instance] = max(
            self._delivered_frontier[block.instance], block.sequence_number
        )
        self.rank_tracker.observe(block)

    # -- status -------------------------------------------------------------

    def status_of(self, tx_id: str) -> TxStatus:
        """Current status of a transaction (PENDING if unknown)."""
        return self._status.get(tx_id, TxStatus.PENDING)

    def _set_status(self, tx: Transaction, status: TxStatus) -> None:
        previous = self._status.get(tx.tx_id, TxStatus.PENDING)
        if previous.terminal:
            return
        self._status[tx.tx_id] = status
        if status.terminal:
            self.confirmed_count += 1
            dead = (tx.tx_id,)
            for index in self._pending_assignments.pop(tx.tx_id, ()):
                self._pending_per_instance[index] -= 1
                # The bucket's copy is dead from here on: the leader's
                # in-flight entry, or the one a backup queued and would
                # otherwise keep until an epoch boundary.
                bucket = self.buckets[index]
                bucket.mark_confirmed(dead)
                bucket.purge(dead)

    # -- epochs / checkpoints ------------------------------------------------

    def _maybe_complete_epochs(self) -> list[Checkpoint]:
        """Close finished epochs: build checkpoints and garbage-collect."""
        checkpoints: list[Checkpoint] = []
        for epoch in self.epochs.newly_completed():
            checkpoint = Checkpoint(
                epoch=epoch,
                frontier=tuple(self.frontier.as_state().sequence_numbers),
                state_digest=self.store.state_digest(),
            )
            checkpoints.append(checkpoint)
            self._garbage_collect()
        return checkpoints

    def _garbage_collect(self) -> None:
        """Sweep every terminal transaction out of every bucket (Sec. V-D).

        Blocks, slots and the bucket entries recorded at submission are
        released as they die, whatever the epoch length; what is left for the
        epoch boundary is a copy submitted after its transaction executed.
        """
        confirmed = [tx_id for tx_id, status in self._status.items() if status.terminal]
        for bucket in self.buckets:
            bucket.mark_confirmed(confirmed)
            bucket.purge(confirmed)
