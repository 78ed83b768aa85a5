"""Message-level Multi-BFT replica node.

A :class:`MultiBFTReplica` is a full protocol participant: it hosts one PBFT
endpoint per SB instance, a consensus core (Orthrus or a baseline), leader
logic that cuts batches from its buckets, the epoch checkpoint exchange and
the client reply path.

The replica performs all I/O — message sends, broadcasts, timers and clock
reads — through a :class:`~repro.net.transport.NodeTransport`.  Inside the
simulation the replica is its own transport (it is a
:class:`~repro.sim.process.Process` wired to the modelled network); in the
live runtime an :class:`~repro.runtime.transport.AsyncioTransport` is injected
instead and the identical consensus code runs over real TCP sockets (see
:mod:`repro.runtime.server`).  This is the highest-fidelity driver; the test
suite and the small-scale examples use it, while the large simulated sweeps
use :mod:`repro.cluster.pipeline`.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.cluster.messages import ClientReply, ClientRequest
from repro.core.epochs import CheckpointQuorum
from repro.core.interfaces import ConsensusCore
from repro.core.outcomes import ConfirmationPath, TxStatus
from repro.ledger.blocks import Block
from repro.metrics.summary import MetricsCollector
from repro.net.transport import NodeTransport
from repro.obs.registry import NULL_REGISTRY
from repro.obs.trace import TraceWriter
from repro.sb.pbft.endpoint import PBFTConfig, PBFTEndpoint
from repro.sb.pbft.messages import CheckpointMessage, PBFTMessage
from repro.sim.process import Process


#: Executed-transaction replies kept for answering retransmissions.  Bounds
#: replica memory on long-lived live servers; evicting the oldest half keeps
#: amortised cost O(1) and the retransmit window (seconds) far inside the
#: retained range at any realistic throughput.
REPLY_CACHE_LIMIT = 50_000


class MultiBFTReplica(Process):
    """One replica participating in every SB instance."""

    def __init__(
        self,
        replica_id: int,
        num_replicas: int,
        core: ConsensusCore,
        *,
        pbft_config: PBFTConfig | None = None,
        batch_size: int | None = None,
        batch_interval: float = 0.05,
        metrics: MetricsCollector | None = None,
        transport: NodeTransport | None = None,
        reply_cache_limit: int = REPLY_CACHE_LIMIT,
        registry: Any = None,
        tracer: TraceWriter | None = None,
        durability: Any = None,
    ) -> None:
        super().__init__(replica_id)
        #: Host transport for all I/O.  Defaults to the replica itself, which
        #: as a ``Process`` satisfies ``NodeTransport`` via the simulator.
        self.transport: NodeTransport = transport if transport is not None else self
        self.num_replicas = num_replicas
        self.core = core
        self.metrics = metrics
        self.batch_size = batch_size or core.config.batch_size
        self.batch_interval = batch_interval
        self.fault_tolerance = (num_replicas - 1) // 3
        self._pbft_config = pbft_config or PBFTConfig()
        self.endpoints: dict[int, PBFTEndpoint] = {}
        self._next_sequence: dict[int, int] = {}
        #: Client node to answer, per requested transaction not yet executed
        #: (popped when the reply is sent; retransmissions after that are
        #: answered from the reply cache or the core's terminal status).
        self._client_of_tx: dict[str, int] = {}
        #: Reply cache: lets a retransmitted request for an already-executed
        #: transaction be answered immediately (the live client's retry path;
        #: simulated clients never retransmit).  Bounded: the oldest half is
        #: evicted past ``reply_cache_limit``; requests for evicted entries
        #: are rebuilt from the core's terminal status (see
        #: :meth:`_handle_client_request`).
        self.reply_cache_limit = reply_cache_limit
        self._reply_of_tx: dict[str, ClientReply] = {}
        #: Instances this replica currently leads (tracked across views so a
        #: demotion can requeue the old leader's in-flight transactions).
        self._led: set[int] = set()
        self._checkpoints = CheckpointQuorum(2 * self.fault_tolerance + 1)
        self._last_proposal_at: dict[int, float] = {}
        #: Minimum idle time before an empty (no-op) block is proposed to keep
        #: the global ordering frontier advancing once client traffic stops.
        self.noop_interval = 0.5
        self._started = False
        self._crashed = False
        #: Observability.  The sim path passes neither registry nor tracer,
        #: so every instrument below is an inert singleton and the replica's
        #: behaviour (and the simulator's determinism) is untouched.
        self.obs = registry if registry is not None else NULL_REGISTRY
        self.tracer = tracer
        #: Durability hooks (live runtime only — ``None`` on the sim path,
        #: where the replica's behaviour must stay bit-identical).  Duck-typed
        #: to :class:`repro.runtime.durability.ReplicaDurability`.
        self.durability = durability
        self._obs_on = bool(self.obs.enabled) or tracer is not None
        self._c_blocks_proposed = self.obs.counter("consensus.blocks_proposed")
        self._c_reply_cache_hits = self.obs.counter("replica.reply_cache_hits")
        self._c_reply_cache_evictions = self.obs.counter(
            "replica.reply_cache_evictions"
        )
        self._h_bar_wait = self.obs.histogram("consensus.bar_wait_seconds")
        #: Uniform across orderer families: time from SB delivery to release
        #: into the global log, whatever mechanism (bar, pre-determined slot,
        #: sequencer decision, conflict graph) gated the release.
        self._h_release_wait = self.obs.histogram("consensus.release_wait_seconds")
        self.obs.gauge_fn(
            "consensus.view_changes",
            lambda: sum(e.view_changes_completed for e in self.endpoints.values()),
        )
        self.obs.gauge_fn(
            "consensus.conflict_graph_size",
            lambda: self._conflict_graph_size(),
        )
        self.obs.gauge_fn(
            "consensus.rank_regressions",
            lambda: self.core.global_orderer.stats.rank_regressions,
        )
        self.obs.gauge_fn(
            "consensus.global_pending",
            lambda: self.core.global_orderer.pending_count(),
        )
        self.obs.gauge_fn(
            "consensus.max_waiting",
            lambda: self.core.global_orderer.stats.max_waiting,
        )
        self.obs.gauge_fn(
            "consensus.bucket_depth",
            lambda: sum(len(bucket) for bucket in self.core.buckets),
        )
        self.obs.gauge_fn(
            "consensus.escrow_conflicts",
            lambda: getattr(getattr(self.core, "escrow", None), "escrows_failed", 0),
        )
        self.obs.gauge_fn(
            "ledger.digest_cache_hits", lambda: self.core.store.digest_cache_hits
        )
        self.obs.gauge_fn(
            "ledger.digest_cache_misses", lambda: self.core.store.digest_cache_misses
        )
        self.obs.gauge_fn("replica.reply_cache_size", lambda: len(self._reply_of_tx))
        #: SB delivery time per (instance, sequence) block still waiting on
        #: the bar — feeds the bar-wait histogram and ``bar_released`` trace
        #: events; only populated when observability is on.
        self._sb_delivered_at: dict[tuple[int, int], float] = {}

        for instance in range(core.config.num_instances):
            endpoint = PBFTEndpoint(
                instance_id=instance,
                replica_id=replica_id,
                num_replicas=num_replicas,
                transport=self.transport,
                config=self._pbft_config,
            )
            endpoint.on_deliver(lambda block, inst=instance: self._on_deliver(block))
            endpoint.on_leader_change(
                lambda view, leader, inst=instance: self._on_leader_change(inst, leader)
            )
            if tracer is not None:
                endpoint.on_prepared(self._on_prepared)
            endpoint.pending_work_probe = (
                lambda inst=instance: self._has_pending_work(inst)
            )
            self.endpoints[instance] = endpoint
            self._next_sequence[instance] = 0

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Begin the proposal loop for the instances this replica leads."""
        if self._started:
            return
        self._started = True
        for instance, endpoint in self.endpoints.items():
            endpoint.start()
            if endpoint.is_leader():
                self._led.add(instance)
        self.transport.set_timer(self.batch_interval, self._proposal_tick)

    def crash(self) -> None:
        """Stop participating entirely (used by fault-injection tests)."""
        self._crashed = True
        self.transport.cancel_timers()

    # -- transport interface (simulator hosting) ----------------------------

    def now(self) -> float:
        """Current simulated time (NodeTransport protocol, sim hosting)."""
        return self.sim.now

    # Process.send / Process.broadcast / Process.set_timer / Process.cancel_timers
    # satisfy the remaining NodeTransport requirements when the replica hosts
    # itself inside the simulator.

    # -- message handling -------------------------------------------------------------

    def receive(self, sender: int, message: Any) -> None:
        if self._crashed:
            return
        if isinstance(message, ClientRequest):
            self._handle_client_request(sender, message)
        elif isinstance(message, CheckpointMessage):
            self._checkpoints.add_vote(message.epoch, message.state_digest, message.sender)
        elif isinstance(message, PBFTMessage):
            endpoint = self.endpoints.get(message.instance)
            if endpoint is not None:
                endpoint.handle_message(sender, message)

    def _handle_client_request(self, sender: int, request: ClientRequest) -> None:
        tx = request.tx
        cached_reply = self._reply_of_tx.get(tx.tx_id)
        if cached_reply is not None:
            # Already executed: the original reply may have been lost in
            # transit, so answer the retransmission from the cache.
            self._c_reply_cache_hits.inc()
            self.transport.send(request.client_node, cached_reply)
            return
        status = self.core.status_of(tx.tx_id)
        if status.terminal:
            # Executed, but the cached reply was evicted: fail safe by
            # rebuilding the answer from the core's terminal status instead
            # of silently dropping the retransmission (re-submitting is not
            # an option — the bucket dedupe would swallow it and the client
            # would starve).
            reply = ClientReply(
                tx_id=tx.tx_id,
                replica=self.node_id,
                committed=status is TxStatus.COMMITTED,
                confirmed_at=None,
            )
            self._cache_reply(reply)
            self.transport.send(request.client_node, reply)
            return
        try:
            buckets = self.core.submit(tx)
        except Exception:
            return
        # Only an accepted, unexecuted transaction gets per-transaction state
        # here: everything below is released when it executes, and neither a
        # retransmission of an executed transaction (answered above) nor a
        # rejected submission ever would.
        self._client_of_tx[tx.tx_id] = request.client_node
        if self.metrics is not None or self.tracer is not None:
            now = self.transport.now()
            if self.metrics is not None:
                if tx.submitted_at is not None:
                    # Client-stamped submission time (one shared clock per
                    # host) opens the "send" stage of the breakdown.
                    self.metrics.latency.record_submitted(tx.tx_id, tx.submitted_at)
                self.metrics.latency.record_received(tx.tx_id, now)
            if self.tracer is not None and self.tracer.sampled(tx.tx_id):
                self.tracer.emit(tx.tx_id, "received", now)
        # Censorship detection: expect progress on every instance this
        # transaction was assigned to (Sec. V-B).
        for instance in buckets:
            self.endpoints[instance].notify_pending_work()

    # -- leader logic ---------------------------------------------------------------------

    def led_instances(self) -> list[int]:
        """Instances currently led by this replica."""
        return [
            instance
            for instance, endpoint in self.endpoints.items()
            if endpoint.is_leader()
        ]

    def _proposal_tick(self) -> None:
        if self._crashed:
            return
        for instance, endpoint in self.endpoints.items():
            if endpoint.is_leader():
                self._propose_for(instance)
            elif self._has_pending_work(instance):
                # Not our instance to lead, but work is waiting on it: keep
                # the failure detector armed so a crashed leader is detected
                # even when no further client request arrives (arming is
                # idempotent while the timer is active).
                endpoint.notify_pending_work()
        self.transport.set_timer(self.batch_interval, self._proposal_tick)

    def _has_pending_work(self, instance: int) -> bool:
        """Whether this instance owes progress (failure-detector predicate).

        True while non-terminal transactions are assigned to the instance
        (queued or pulled-but-unconfirmed), or globally delivered blocks are
        waiting for *some* instance to advance — a stalled instance must keep
        rotating leaders until the global log drains, or the whole cluster
        wedges on its frontier.
        """
        return (
            self.core.pending_work(instance) > 0
            or self.core.global_orderer.pending_count() > 0
        )

    def _propose_for(self, instance: int) -> None:
        batch = self.core.select_batch(instance, self.batch_size)
        if not batch and not self._should_propose_noop(instance):
            return
        rank = self.core.next_rank() if self.core.uses_ranks else None
        block = Block.create(
            instance=instance,
            sequence_number=self._next_sequence[instance],
            transactions=batch,
            state=self.core.delivered_state(),
            proposer=self.node_id,
            epoch=self._next_sequence[instance] // self.core.config.epoch_length,
            rank=rank,
        )
        self._next_sequence[instance] += 1
        self._c_blocks_proposed.inc()
        now = self.transport.now()
        self._last_proposal_at[instance] = now
        if self.metrics is not None:
            for tx in batch:
                self.metrics.latency.record_proposed(tx.tx_id, now)
        tracer = self.tracer
        if tracer is not None:
            view = self.endpoints[instance].view
            for tx in batch:
                if tracer.sampled(tx.tx_id):
                    tracer.emit(
                        tx.tx_id, "proposed", now, instance=instance, view=view
                    )
        self.endpoints[instance].broadcast_block(block)

    def _should_propose_noop(self, instance: int) -> bool:
        """Propose an empty block to unblock global ordering (ISS-style no-op).

        Rank- and position-based global ordering both need every instance to
        keep delivering for already-delivered blocks to become globally
        ordered; once client traffic drains, idle leaders fill their slots
        with no-ops so the remaining contract transactions confirm.
        """
        if self.core.global_orderer.pending_count() == 0:
            return False
        last = self._last_proposal_at.get(instance, 0.0)
        return self.transport.now() - last >= self.noop_interval

    def _on_leader_change(self, instance: int, leader: int) -> None:
        endpoint = self.endpoints[instance]
        # Rank monotonicity across the view change: blocks the old leader
        # left pre-prepared keep their original ranks when re-proposed, so
        # every replica — above all the next leader — must account for those
        # ranks *before* assigning new ones.  A fresh rank below a re-proposed
        # block's rank would violate the strictly-increasing-per-instance
        # precondition Ladon's bar relies on and diverge the global log
        # across replicas.
        for _, block in endpoint.slots.undelivered_proposals():
            self.core.rank_tracker.observe(block)
        if self.durability is not None:
            self.durability.on_view_installed(instance, endpoint.view)
        was_leader = instance in self._led
        if leader != self.node_id:
            self._led.discard(instance)
            if was_leader:
                # Demoted: return pulled-but-undelivered transactions to the
                # bucket and release the leader-side escrow reservations so
                # they neither vanish nor leak affordability.
                self.core.on_leadership_lost(instance)
            return
        self._led.add(instance)
        # Resume sequence numbering after whatever the old leader delivered or
        # left pre-prepared (re-proposed slots keep their original numbers, so
        # fresh proposals must start above them to avoid conflicting slots).
        delivered = self.core.delivered_state().sequence_numbers[instance]
        highest_started = endpoint.slots.highest_started()
        self._next_sequence[instance] = max(
            self._next_sequence[instance], delivered + 1, highest_started + 1
        )

    # -- delivery path --------------------------------------------------------------------

    def _on_prepared(self, block: Block, view: int) -> None:
        """Tracing hook: a slot reached the prepared state on this replica."""
        tracer = self.tracer
        if tracer is None or self._crashed:
            return
        now = self.transport.now()
        for tx in block.transactions:
            if tracer.sampled(tx.tx_id):
                tracer.emit(
                    tx.tx_id, "prepared", now, instance=block.instance, view=view
                )

    def _on_deliver(self, block: Block) -> None:
        if self._crashed:
            return
        if (
            block.sequence_number
            <= self.core.delivered_state().sequence_numbers[block.instance]
        ):
            # A live state transfer already applied this sequence number
            # while the slot's commit quorum was still completing; endpoints
            # deliver in order, so anything at or below the frontier is a
            # replay the core must not see twice.
            return
        now = self.transport.now()
        tracer = self.tracer
        if self.metrics is not None:
            status_of = self.core.status_of
            for tx in block.transactions:
                # A multi-bucket transaction rejected through one instance is
                # still carried by the other's block; its timeline is closed.
                if not status_of(tx.tx_id).terminal:
                    self.metrics.latency.record_delivered(tx.tx_id, now)
        if tracer is not None:
            view = self.endpoints[block.instance].view
            for tx in block.transactions:
                if tracer.sampled(tx.tx_id):
                    tracer.emit(
                        tx.tx_id, "committed", now, instance=block.instance, view=view
                    )
        if self._obs_on:
            self._sb_delivered_at[(block.instance, block.sequence_number)] = now
        outcomes = self.core.on_block_delivered(block)
        if self.durability is not None:
            self.durability.on_block_delivered(block)
        if self._obs_on:
            self._note_bar_released(self.core.global_orderer.last_released, now)
        for outcome in outcomes:
            if self.metrics is not None:
                self.metrics.record_outcome(
                    outcome.tx.tx_id,
                    now,
                    committed=outcome.committed,
                    partial_path=outcome.path is ConfirmationPath.PARTIAL,
                )
            if tracer is not None and tracer.sampled(outcome.tx.tx_id):
                tracer.emit(outcome.tx.tx_id, "executed", now)
            client_node = self._client_of_tx.pop(outcome.tx.tx_id, None)
            if client_node is not None:
                reply = ClientReply(
                    tx_id=outcome.tx.tx_id,
                    replica=self.node_id,
                    committed=outcome.committed,
                    confirmed_at=now,
                )
                self._cache_reply(reply)
                self.transport.send(client_node, reply)
        self._broadcast_checkpoints()
        if self.durability is not None:
            self.durability.maybe_cut_deferred_snapshot(self.core)

    def _conflict_graph_size(self) -> int:
        """Edges tracked by a dependency-aware orderer (0 for the others)."""
        probe = getattr(self.core.global_orderer, "conflict_graph_size", None)
        return probe() if probe is not None else 0

    def _note_bar_released(self, released: Sequence[Block], now: float) -> None:
        """Record release-wait time and trace ``bar_released`` for every block
        the last delivery pushed past the global-ordering gate."""
        tracer = self.tracer
        for ordered_block in released:
            key = (ordered_block.instance, ordered_block.sequence_number)
            delivered_at = self._sb_delivered_at.pop(key, None)
            if delivered_at is not None:
                self._h_bar_wait.observe(now - delivered_at)
                self._h_release_wait.observe(now - delivered_at)
            if tracer is None:
                continue
            for tx in ordered_block.transactions:
                if tracer.sampled(tx.tx_id):
                    tracer.emit(
                        tx.tx_id,
                        "bar_released",
                        now,
                        instance=ordered_block.instance,
                    )

    def _cache_reply(self, reply: ClientReply) -> None:
        """Insert a reply into the bounded retransmission cache.

        Dict insertion order is the eviction order: entries are only ever
        inserted on first execution (cache hits answer without re-inserting,
        which would not reorder the dict anyway), so the first half of the
        keys really is the oldest half.  Overwriting an existing key keeps
        its original position, preserving that invariant.
        """
        self._reply_of_tx[reply.tx_id] = reply
        if len(self._reply_of_tx) > self.reply_cache_limit:
            stale_keys = list(self._reply_of_tx)[: self.reply_cache_limit // 2]
            for stale in stale_keys:
                del self._reply_of_tx[stale]
            self._c_reply_cache_evictions.inc(len(stale_keys))

    def _broadcast_checkpoints(self) -> None:
        pending = getattr(self.core, "pending_checkpoints", None)
        if not pending:
            return
        while pending:
            checkpoint = pending.pop(0)
            if self.durability is not None:
                self.durability.on_epoch_completed(
                    self.core, checkpoint.epoch, checkpoint.digest
                )
            message = CheckpointMessage(
                instance=0,
                view=0,
                sender=self.node_id,
                epoch=checkpoint.epoch,
                state_digest=checkpoint.digest,
            )
            self.transport.broadcast(message)
            self._checkpoints.add_vote(checkpoint.epoch, checkpoint.digest, self.node_id)

    # -- recovery -------------------------------------------------------------------------------

    def fast_forward(self, views: list[int] | None = None) -> None:
        """Re-align PBFT machinery with recovered core state (before
        :meth:`start`).

        Advances every endpoint's slot table past the recovered delivered
        frontier (those sequence numbers were agreed by the pre-crash
        incarnation and replayed from the WAL or fetched via state transfer),
        installs at least the given per-instance views, and resumes leader
        sequence numbering above the frontier.  Without this, a recovered
        leader would re-propose sequence number 0 and wedge on slots its
        peers already delivered.
        """
        delivered = self.core.delivered_state().sequence_numbers
        for instance, endpoint in self.endpoints.items():
            next_sequence = delivered[instance] + 1
            endpoint.slots.fast_forward(next_sequence)
            if views is not None and views[instance] > endpoint.view:
                endpoint.fast_forward_view(views[instance])
            self._next_sequence[instance] = max(
                self._next_sequence[instance], next_sequence
            )
        # Slots committed while delivery waited on a hole the transfer just
        # filled become deliverable only now; with no further PBFT traffic
        # guaranteed (e.g. post-load), they must drain here or strand.
        for endpoint in self.endpoints.values():
            endpoint.drain_deliverable()

    # -- introspection ------------------------------------------------------------------------

    def stable_checkpoint(self, epoch: int) -> bool:
        """Whether this replica holds a stable checkpoint for ``epoch``."""
        return self._checkpoints.is_stable(epoch)

    def stable_checkpoint_digest(self, epoch: int) -> str | None:
        """Quorum-stable checkpoint digest for ``epoch``, if one formed."""
        return self._checkpoints.stable_digest(epoch)

    def latest_stable_epoch(self) -> int:
        """Highest epoch with a quorum-stable checkpoint (-1 when none)."""
        stable = self._checkpoints._stable
        return max(stable) if stable else -1
