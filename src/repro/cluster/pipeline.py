"""Pipeline cluster: the quorum-fidelity experiment driver.

This driver reproduces the paper's large-scale experiments (up to 128
replicas) on a laptop by simulating the system at *instance* granularity:

* every SB instance is a block-production pipeline whose leader cuts batches
  from its bucket, occupies its uplink for the block's serialisation time and
  sees the block delivered after the quorum-latency model's consensus delay;
* one representative honest replica runs the full, real consensus core
  (Orthrus or a baseline) — partitioning, partial/global ordering, escrow and
  execution are exactly the library code the tests exercise;
* clients are closed-loop: the transaction pool is topped up as leaders drain
  it, which drives the system to its peak (saturation) throughput, the
  operating point the paper reports.

Sampling: blocks carry ``samples_per_block`` representative transactions while
the timing model charges the full ``represented_batch_size`` (4096 in the
paper).  Reported throughput is scaled by the ratio; latency, ordering and
execution behaviour are measured on the representative transactions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cluster.faults import FaultPlan
from repro.core.config import DEFAULT_EPOCH_LENGTH, CoreConfig
from repro.core.interfaces import ConsensusCore
from repro.core.outcomes import ConfirmationPath, TxOutcome
from repro.core.partition import TransactionPartitioner
from repro.crypto.signatures import CryptoCostModel
from repro.errors import ExperimentError
from repro.ledger.blocks import BLOCK_HEADER_BYTES, Block
from repro.ledger.transactions import Transaction
from repro.metrics.summary import MetricsCollector, RunMetrics
from repro.net.latency import BandwidthModel, latency_model_for
from repro.protocols.dqbft import DQBFTCore
from repro.protocols.registry import build_core
from repro.sb.quorum.model import QuorumLatencyModel
from repro.sim.simulator import Simulator
from repro.workload.config import WorkloadConfig
from repro.workload.generator import EthereumStyleWorkload


@dataclass
class PipelineConfig:
    """Configuration of one pipeline-cluster experiment run."""

    protocol: str = "orthrus"
    num_replicas: int = 16
    environment: str = "wan"
    represented_batch_size: int = 4096
    samples_per_block: int = 8
    payload_size: int = 500
    batch_timeout: float = 0.25
    duration: float = 40.0
    warmup: float = 5.0
    max_in_flight: int = 4
    #: Log-normal sigma applied to each block's production occupancy.  Real
    #: leaders do not cut batches in lock-step (fill levels, GC pauses and
    #: scheduling noise desynchronise instances), and this jitter is what
    #: makes the global-ordering wait of pre-determined protocols visible
    #: even without stragglers.
    production_jitter_sigma: float = 0.25
    epoch_blocks: int | None = None
    epoch_pause: float = 0.5
    throughput_window: float = 0.5
    seed: int = 1
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    faults: FaultPlan = field(default_factory=FaultPlan.none)

    def __post_init__(self) -> None:
        if self.num_replicas < 4:
            raise ExperimentError("num_replicas must be at least 4")
        if self.samples_per_block <= 0:
            raise ExperimentError("samples_per_block must be positive")
        if self.represented_batch_size < self.samples_per_block:
            raise ExperimentError(
                "represented_batch_size must be >= samples_per_block"
            )
        if self.duration <= self.warmup:
            raise ExperimentError("duration must exceed warmup")

    @property
    def num_instances(self) -> int:
        """The paper runs one instance per replica (m = n)."""
        return self.num_replicas

    @property
    def scale_factor(self) -> float:
        """Throughput multiplier from representative to full batches."""
        return self.represented_batch_size / self.samples_per_block


class _InstanceState:
    """Mutable production state of one SB instance."""

    __slots__ = (
        "index",
        "leader",
        "next_sn",
        "uplink_free_at",
        "in_flight",
        "crashed",
        "waiting_for_slot",
        "produce_scheduled",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.leader = index
        self.next_sn = 0
        self.uplink_free_at = 0.0
        self.in_flight = 0
        self.crashed = False
        self.waiting_for_slot = False
        self.produce_scheduled = False


class PipelineCluster:
    """Quorum-fidelity Multi-BFT cluster simulation."""

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config
        self.sim = Simulator(config.seed)
        self._latency = latency_model_for(config.environment)
        self._bandwidth = BandwidthModel()
        self._crypto = CryptoCostModel()
        self._rng = self.sim.rng.fork("pipeline")
        self.quorum_model = QuorumLatencyModel(
            num_replicas=config.num_replicas,
            latency_model=self._latency,
            bandwidth_model=self._bandwidth,
            crypto_model=self._crypto,
            rng=self.sim.rng.fork("quorum"),
        )
        core_config = CoreConfig(
            num_instances=config.num_instances,
            batch_size=config.samples_per_block,
            batch_timeout=config.batch_timeout,
            epoch_length=config.epoch_blocks or DEFAULT_EPOCH_LENGTH,
        )
        self.core: ConsensusCore = build_core(config.protocol, core_config)
        workload_config = replace(config.workload, payload_size=config.payload_size)
        self.workload = EthereumStyleWorkload(workload_config)
        self.workload.universe.populate(self.core.store)
        self.metrics = MetricsCollector()
        self._instances = [
            _InstanceState(i) for i in range(config.num_instances)
        ]
        self._completed_epochs = 0
        self._epoch_paused_until = 0.0
        self._sequencer_instance = self._pick_sequencer()
        self._pending_decisions: list[tuple[int, int]] = []
        self._accounts_by_bucket = self._index_accounts_by_bucket()
        #: Simple counters surfaced through RunMetrics.extra.
        self.blocks_delivered = 0
        self.blocks_produced = 0

    # -- setup helpers ---------------------------------------------------------

    def _pick_sequencer(self) -> int:
        """DQBFT's ordering instance: the first non-straggler replica."""
        for candidate in range(self.config.num_replicas):
            if self.config.faults.slowdown_of(candidate) == 1.0:
                return candidate
        return 0

    def _index_accounts_by_bucket(self) -> list[list[str]]:
        """Group workload accounts by the bucket their key hashes to.

        Used for targeted (per-instance) closed-loop replenishment when the
        protocol partitions by payer: keeping every instance's bucket supplied
        is how the paper's peak-throughput operating point is reached, and it
        avoids penalising Orthrus for sampling artefacts that a 4096-deep
        batch would absorb in the real system.
        """
        buckets: list[list[str]] = [[] for _ in range(self.config.num_instances)]
        partitioner = self.core.partitioner
        for key in self.workload.universe.account_keys():
            buckets[partitioner.assign_object(key)].append(key)
        return buckets

    def _payer_for_instance(self, instance: int) -> str | None:
        """Zipf-skewed payer whose bucket is ``instance`` (None if empty)."""
        accounts = self._accounts_by_bucket[instance]
        if not accounts:
            return None
        index = self._rng.zipf_index(len(accounts), self.workload.config.zipf_exponent)
        return accounts[index]

    def _client_delay(self) -> float:
        """One-way delay between a client and a replica."""
        peer = self._rng.randint(0, self.config.num_replicas - 1)
        return self._latency.delay(self.config.num_replicas + 1, peer, self._rng) or 0.0005

    # -- workload ingestion -------------------------------------------------------

    def _replenish(self, count: int, *, instance: int | None = None) -> None:
        """Submit ``count`` fresh transactions (closed-loop load).

        When ``instance`` is given and the protocol partitions by payer, the
        new transactions' primary payers are drawn from accounts assigned to
        that instance so its bucket stays saturated.
        """
        now = self.sim.now
        target_by_payer = instance is not None and not isinstance(
            self.core.partitioner, TransactionPartitioner
        )
        for _ in range(count):
            payer = self._payer_for_instance(instance) if target_by_payer else None
            tx = self.workload.next_transaction(primary_payer=payer)
            self.metrics.latency.record_submitted(tx.tx_id, now)
            delay = self._client_delay()
            self.sim.schedule(delay, lambda tx=tx: self._receive(tx))

    def _receive(self, tx: Transaction) -> None:
        self.metrics.latency.record_received(tx.tx_id, self.sim.now)
        self.core.submit(tx)

    # -- block production ----------------------------------------------------------

    def start(self) -> None:
        """Prime the workload pool and start every instance's pipeline."""
        for state in self._instances:
            self._replenish(2 * self.config.samples_per_block, instance=state.index)
            self._schedule_produce(state, self.config.batch_timeout)
        for replica, crash_time in self.config.faults.crashes.items():
            self.sim.schedule(crash_time, lambda r=replica: self._crash(r))
        if isinstance(self.core, DQBFTCore):
            self.sim.schedule(self.config.batch_timeout, self._sequencer_tick)

    def _schedule_produce(self, state: _InstanceState, delay: float) -> None:
        if state.produce_scheduled:
            return
        state.produce_scheduled = True
        self.sim.schedule(max(delay, 0.0), lambda: self._try_produce(state))

    def _try_produce(self, state: _InstanceState) -> None:
        state.produce_scheduled = False
        now = self.sim.now
        if state.crashed:
            return
        if now < self._epoch_paused_until:
            self._schedule_produce(state, self._epoch_paused_until - now)
            return
        if not self._epoch_allows(state):
            state.waiting_for_slot = True
            return
        if now < state.uplink_free_at:
            self._schedule_produce(state, state.uplink_free_at - now)
            return
        if state.in_flight >= self.config.max_in_flight:
            state.waiting_for_slot = True
            return
        batch = self.core.select_batch(state.index, self.config.samples_per_block)
        if not batch:
            self._replenish(self.config.samples_per_block, instance=state.index)
            self._schedule_produce(state, self.config.batch_timeout)
            return
        self._produce_block(state, batch)

    def _produce_block(self, state: _InstanceState, batch: list[Transaction]) -> None:
        now = self.sim.now
        rank = self.core.next_rank() if self.core.uses_ranks else None
        block = Block.create(
            instance=state.index,
            sequence_number=state.next_sn,
            transactions=batch,
            state=self.core.delivered_state(),
            proposer=state.leader,
            epoch=state.next_sn // (self.config.epoch_blocks or DEFAULT_EPOCH_LENGTH),
            rank=rank,
        )
        state.next_sn += 1
        self.blocks_produced += 1
        for tx in batch:
            self.metrics.latency.record_proposed(tx.tx_id, now)

        slowdown = self.config.faults.slowdown_of(state.leader)
        represented_count = max(
            1,
            round(
                len(batch)
                * self.config.represented_batch_size
                / self.config.samples_per_block
            ),
        )
        represented_bytes = (
            BLOCK_HEADER_BYTES + represented_count * self.config.payload_size
        )
        occupancy = self.quorum_model.leader_occupancy(
            represented_bytes, represented_count, slowdown=slowdown
        )
        if self.config.production_jitter_sigma > 0:
            occupancy = self._rng.lognormal_jitter(
                occupancy, self.config.production_jitter_sigma
            )
        delivery_delay = self.quorum_model.delivery_latency(
            state.leader,
            represented_bytes,
            represented_count,
            slowdown=slowdown,
            abstaining=self.config.faults.undetectable_faults,
        )
        delivery_delay += (
            self.config.faults.undetectable_faults
            * self.config.faults.retransmit_penalty_per_fault
        )
        state.uplink_free_at = now + occupancy
        state.in_flight += 1
        self.sim.schedule(delivery_delay, lambda: self._deliver(state, block))
        self._replenish(len(batch), instance=state.index)
        self._schedule_produce(state, occupancy)

    # -- delivery and execution -------------------------------------------------------

    def _deliver(self, state: _InstanceState, block: Block) -> None:
        now = self.sim.now
        state.in_flight -= 1
        self.blocks_delivered += 1
        for tx in block.transactions:
            self.metrics.latency.record_delivered(tx.tx_id, now)
        outcomes = self.core.on_block_delivered(block)
        self._handle_outcomes(outcomes)
        if isinstance(self.core, DQBFTCore):
            self._pending_decisions.append(block.block_id)
        self._maybe_complete_epoch()
        self._resume_waiting()

    def _sequencer_tick(self) -> None:
        """DQBFT sequencer: batch pending ordering decisions periodically.

        The designated ordering instance shares its leader's uplink and CPU
        with that replica's worker instance, so decisions are cut at the same
        cadence as regular blocks and take one consensus round to deliver.
        """
        if not isinstance(self.core, DQBFTCore):
            return
        interval = self.quorum_model.leader_occupancy(
            BLOCK_HEADER_BYTES + self.config.represented_batch_size * self.config.payload_size,
            self.config.represented_batch_size,
            slowdown=self.config.faults.slowdown_of(self._sequencer_instance),
        )
        if self._pending_decisions:
            decisions = list(self._pending_decisions)
            self._pending_decisions.clear()
            decision_delay = self.quorum_model.delivery_latency(
                self._sequencer_instance,
                BLOCK_HEADER_BYTES,
                0,
                slowdown=self.config.faults.slowdown_of(self._sequencer_instance),
                abstaining=self.config.faults.undetectable_faults,
            )
            self.sim.schedule(
                decision_delay,
                lambda: self._handle_outcomes(
                    self.core.on_sequencer_decision(decisions)  # type: ignore[attr-defined]
                ),
            )
        self.sim.schedule(max(interval, 0.05), self._sequencer_tick)

    def _handle_outcomes(self, outcomes: list[TxOutcome]) -> None:
        now = self.sim.now
        for outcome in outcomes:
            reply_delay = self._client_delay()
            self.metrics.record_outcome(
                outcome.tx.tx_id,
                now,
                committed=outcome.committed,
                partial_path=outcome.path is ConfirmationPath.PARTIAL,
            )
            self.metrics.latency.record_replied(outcome.tx.tx_id, now + reply_delay)

    def _resume_waiting(self) -> None:
        for state in self._instances:
            if state.waiting_for_slot and not state.crashed:
                state.waiting_for_slot = False
                self._schedule_produce(state, 0.0)

    # -- epochs -----------------------------------------------------------------------

    def _epoch_allows(self, state: _InstanceState) -> bool:
        """Whether the instance may propose its next sequence number."""
        if self.config.epoch_blocks is None:
            return True
        boundary = (self._completed_epochs + 1) * self.config.epoch_blocks
        return state.next_sn < boundary

    def _maybe_complete_epoch(self) -> None:
        if self.config.epoch_blocks is None:
            return
        boundary = (self._completed_epochs + 1) * self.config.epoch_blocks - 1
        delivered = self.core.delivered_state().sequence_numbers
        if all(sn >= boundary for sn in delivered):
            self._completed_epochs += 1
            self._epoch_paused_until = self.sim.now + self.config.epoch_pause
            for state in self._instances:
                self._schedule_produce(state, self.config.epoch_pause)

    # -- faults --------------------------------------------------------------------------

    def _crash(self, replica: int) -> None:
        """Crash a replica: the instance it leads stops producing (Fig. 7)."""
        state = self._instances[replica]
        state.crashed = True
        recovery_delay = (
            self.config.faults.view_change_timeout + self.config.faults.recovery_delay
        )
        self.sim.schedule(recovery_delay, lambda: self._recover(replica))

    def _recover(self, replica: int) -> None:
        """View change completed: the next replica takes over the instance."""
        state = self._instances[replica]
        state.crashed = False
        state.leader = (replica + 1) % self.config.num_replicas
        state.uplink_free_at = self.sim.now
        self._schedule_produce(state, 0.0)

    # -- running ----------------------------------------------------------------------------

    def run(self) -> RunMetrics:
        """Run the experiment and return scaled metrics."""
        self.start()
        self.sim.run(until=self.config.duration)
        extra = {
            "blocks_produced": float(self.blocks_produced),
            "blocks_delivered": float(self.blocks_delivered),
            "scale_factor": self.config.scale_factor,
            "sample_confirmed": float(self.metrics.committed + self.metrics.rejected),
        }
        metrics = self.metrics.finalize(
            start=self.config.warmup,
            end=self.config.duration,
            window=self.config.throughput_window,
            extra=extra,
        )
        return self._scale(metrics)

    def _scale(self, metrics: RunMetrics) -> RunMetrics:
        """Scale sample-transaction throughput up to represented batches."""
        factor = self.config.scale_factor
        metrics.throughput_tps *= factor
        for point in metrics.series:
            point.transactions = int(round(point.transactions * factor))
        return metrics


def run_pipeline_experiment(config: PipelineConfig) -> RunMetrics:
    """Convenience wrapper: build, run and return one experiment's metrics."""
    return PipelineCluster(config).run()
