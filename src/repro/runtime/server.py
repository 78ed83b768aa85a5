"""Live replica server: one OS process hosting one Multi-BFT replica.

The server builds the exact consensus stack the simulator uses — a
:class:`~repro.cluster.replica.MultiBFTReplica` wrapping an Orthrus (or
baseline) core — and hosts it behind an
:class:`~repro.runtime.transport.AsyncioTransport`.  Inbound frames (TCP, or
Unix domain sockets for ``unix:`` endpoints) are read in batches, decoded —
inline, or on the configured crypto/codec worker pool for large batches —
and fed to ``replica.receive``; the replica's own proposal loop and
failure-detector timers run on the event loop through the transport's timer
interface.  No consensus code is duplicated or forked for live operation.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import time
from typing import Any

from repro.cluster.replica import MultiBFTReplica
from repro.metrics.latency import StreamingLatencyTracker
from repro.metrics.summary import MetricsCollector
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.trace import TraceWriter
from repro.runtime.chaos import make_abstention_filter, wan_delay_map
from repro.runtime.codec import (
    WireCodecError,
    _decode_block,
    _encode_block,
    encode_envelope,
)
from repro.runtime.config import ReplicaRuntimeConfig, format_endpoint
from repro.runtime.control import (
    RECOVERY_BLOCK_BATCH,
    Hello,
    LinkUpdate,
    MetricsReply,
    MetricsRequest,
    RecoveryReply,
    RecoveryRequest,
    ShutdownRequest,
    StatusReply,
    StatusRequest,
)
from repro.runtime.durability import ReplicaDurability, SnapshotError, restore_core
from repro.runtime.framing import FrameError, FrameReader, write_frame
from repro.runtime.transport import (
    AsyncioTransport,
    connect_endpoint,
    start_endpoint_server,
)
from repro.runtime.workers import (
    OFFLOAD_MIN_BYTES,
    InlineWorkers,
    WorkerPool,
    decode_payloads,
    make_worker_pool,
)
from repro.sb.pbft.endpoint import PBFTConfig

logger = logging.getLogger(__name__)

#: How often a durable replica checks for a wedged delivery frontier.  The
#: reconnection window after a peer restart can lose broadcast frames (there
#: is no per-message retransmission), so a replica that sees slots started
#: beyond its frontier while the frontier itself is stuck re-runs state
#: transfer to fill the gap.
CATCH_UP_INTERVAL = 0.5

#: Wall-clock window after start during which catch-up sweeps run on every
#: tick, wedged or not.  A block that commits cluster-side while the peers'
#: writers are still redialling us leaves *no* local trace — no started
#: slot, no pending bar work — so for as long as that loss window can be
#: open (failure detection plus reconnect backoff, well under a second) the
#: only way to learn about the tip is to ask.
CATCH_UP_SETTLE_SECONDS = 3.0


class ReplicaServer:
    """Host one replica of a live Multi-BFT cluster over asyncio TCP."""

    def __init__(self, config: ReplicaRuntimeConfig) -> None:
        self.config = config
        self.metrics = MetricsCollector(latency=StreamingLatencyTracker())
        #: Named-instrument registry shared by the transport, the replica and
        #: the server's own inbound-path counters; inert under ``--no-obs``.
        self.registry = MetricsRegistry() if config.obs_enabled else NULL_REGISTRY
        self.tracer: TraceWriter | None = None
        if config.obs_enabled and config.trace_file and config.trace_sample > 0.0:
            self.tracer = TraceWriter(
                config.trace_file,
                node=config.replica_id,
                sample_rate=config.trace_sample,
            )
        self._c_bytes_in = self.registry.counter("transport.bytes_in")
        self._c_decode_inline = self.registry.counter("server.decode_batches_inline")
        self._c_decode_offloaded = self.registry.counter(
            "server.decode_batches_offloaded"
        )
        self._h_decode_batch = self.registry.histogram("server.decode_batch_size")
        self.transport: AsyncioTransport | None = None
        self.replica: MultiBFTReplica | None = None
        self.workers: WorkerPool | InlineWorkers | None = None
        self.durability: ReplicaDurability | None = None
        #: Wall-clock seconds the last (re)start spent recovering durable
        #: state — local snapshot + WAL replay plus peer state transfer.
        self.recovery_seconds: float = 0.0
        #: Live state transfers run after startup because the delivery
        #: frontier wedged on a lost frame (see :data:`CATCH_UP_INTERVAL`).
        self.catch_ups = 0
        self._catch_up_frontier: tuple[int, ...] | None = None
        self._catch_up_task: asyncio.Task[None] | None = None
        #: Transport-clock deadline until which the watchdog sweeps state
        #: transfer unconditionally (post-start restart window, and bumped
        #: by a partition heal).
        self._sweep_until = 0.0
        self.started_at: float | None = None
        self._server: asyncio.Server | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._stopped = asyncio.Event()
        self._metrics_sink = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Build the replica, open the listen socket, start proposing.

        With durability enabled (``run_dir``) a restart first recovers
        locally — newest valid snapshot, then the WAL suffix — and then,
        with the listen socket already open (so live consensus traffic and
        the transfer window overlap and no slot can fall in between), pulls
        whatever is still missing from peers before fast-forwarding the
        PBFT endpoints and starting to propose.
        """
        recovery_started = time.monotonic()
        peers = {index: endpoint for index, endpoint in enumerate(self.config.peers)}
        self.transport = AsyncioTransport(
            self.config.replica_id,
            peers,
            send_delay=self.config.send_delay,
            peer_delay=wan_delay_map(
                self.config.wan, self.config.replica_id, self.config.num_replicas
            ),
            registry=self.registry,
        )
        core = self.config.build_core()
        recovered_views: list[int] = [0] * core.config.num_instances
        if self.config.run_dir:
            self.durability = ReplicaDurability(
                self.config.run_dir,
                snapshot_every_epochs=self.config.snapshot_every_epochs,
                clock=self.transport.now,
            )
            if self.config.recovery == "genesis":
                self.durability.wipe()
            core, local = self.durability.recover(core, self.config.build_core)
            recovered_views = local.views
            if local.recovered_anything:
                logger.info(
                    "replica %d local recovery: snapshot epoch %s, %d WAL blocks",
                    self.config.replica_id,
                    local.snapshot_epoch,
                    local.blocks_replayed,
                )
        self.replica = MultiBFTReplica(
            replica_id=self.config.replica_id,
            num_replicas=self.config.num_replicas,
            core=core,
            pbft_config=PBFTConfig(view_change_timeout=self.config.view_change_timeout),
            batch_size=self.config.batch_size,
            batch_interval=self.config.batch_interval,
            metrics=self.metrics,
            transport=self.transport,
            registry=self.registry,
            tracer=self.tracer,
            durability=self.durability,
        )
        self.registry.gauge_fn("server.connections", lambda: len(self._connections))
        self.registry.gauge_fn("server.committed", lambda: self.metrics.committed)
        self.registry.gauge_fn("server.rejected", lambda: self.metrics.rejected)
        if self.durability is not None:
            durability = self.durability
            self.registry.gauge_fn("durability.wal_bytes", lambda: durability.wal_bytes)
            self.registry.gauge_fn("durability.snapshot_age", durability.snapshot_age)
            self.registry.gauge_fn(
                "durability.recovery_seconds", lambda: self.recovery_seconds
            )
        if self.config.byzantine_abstain:
            # Undetectable Byzantine abstention (Fig. 8): this replica keeps
            # proposing/voting in the instances it leads but silently drops
            # consensus messages for every other instance.
            self.transport.outbound_filter = make_abstention_filter(self.replica)
        self.workers = make_worker_pool(self.config.workers)
        if self.workers is not None:
            self.registry.gauge_fn(
                "workers.batches_submitted",
                lambda: getattr(self.workers, "batches_submitted", 0),
            )
            self.registry.gauge_fn(
                "workers.items_submitted",
                lambda: getattr(self.workers, "items_submitted", 0),
            )
        endpoint = self.config.listen_endpoint
        self._server = await start_endpoint_server(self._handle_connection, endpoint)
        if self.durability is not None:
            transferred, peer_views = await self._state_transfer()
            views = [max(own, peer) for own, peer in zip(recovered_views, peer_views)]
            self.replica.fast_forward(views)
            self.recovery_seconds = time.monotonic() - recovery_started
            if transferred or any(views):
                logger.info(
                    "replica %d state transfer: %d blocks, views %s, %.3fs recovery",
                    self.config.replica_id,
                    transferred,
                    views,
                    self.recovery_seconds,
                )
        self.replica.start()
        if self.durability is not None:
            self.registry.gauge_fn("durability.catch_ups", lambda: self.catch_ups)
        # The catch-up watchdog runs regardless of this replica's own
        # durability: a partition heal leaves the same frontier wedge as a
        # restart's reconnection window, and any durable peer can fill it
        # from its WAL.  Only the post-start settle sweeps are
        # durability-specific (they cover the restart loss window).
        self._arm_catch_up()
        self.started_at = self.transport.now()
        if self.config.obs_enabled and self.config.metrics_file:
            self._arm_metrics_snapshot()
        logger.info(
            "replica %d serving on %s (%s, %d instances, %d workers)",
            self.config.replica_id,
            format_endpoint(endpoint),
            self.config.protocol,
            self.config.instances,
            self.workers.workers,
        )

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` is called (or a shutdown frame arrives)."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()
        await self._shutdown()

    def stop(self) -> None:
        """Request a graceful stop (safe to call from any loop callback)."""
        self._stopped.set()

    async def _shutdown(self) -> None:
        if self._catch_up_task is not None:
            self._catch_up_task.cancel()
            try:
                await self._catch_up_task
            except (asyncio.CancelledError, Exception):
                pass
            self._catch_up_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Closing the listen socket only stops *new* connections; peers and
        # clients already connected must see their sockets die too (that is
        # what a crash looks like from outside).
        for writer in list(self._connections):
            writer.close()
        self._connections.clear()
        if self.transport is not None:
            await self.transport.close()
        if self.workers is not None:
            self.workers.close()
            self.workers = None
        if self.config.obs_enabled and self.config.metrics_file:
            # One final snapshot so post-mortem analysis sees the end state.
            self._write_metrics_snapshot()
        if self._metrics_sink is not None:
            self._metrics_sink.close()
            self._metrics_sink = None
        if self.durability is not None:
            # A graceful stop is a quiescent point: settle any snapshot owed
            # from an epoch that completed mid-burst before closing the WAL.
            if self.replica is not None:
                self.durability.maybe_cut_deferred_snapshot(self.replica.core)
            self.durability.close()
        if self.tracer is not None:
            self.tracer.close()

    # -- periodic metrics snapshots -----------------------------------------

    def _arm_metrics_snapshot(self) -> None:
        assert self.transport is not None

        def tick() -> None:
            if self._stopped.is_set():
                return
            self._write_metrics_snapshot()
            if self.tracer is not None:
                # Piggyback the trace flush on the snapshot cadence so trace
                # files stay readable mid-run without per-event syscalls.
                self.tracer.flush()
            self._arm_metrics_snapshot()

        self.transport.set_timer(self.config.metrics_interval, tick)

    def _write_metrics_snapshot(self) -> None:
        if not self.config.metrics_file or self.transport is None:
            return
        try:
            if self._metrics_sink is None:
                self._metrics_sink = open(
                    self.config.metrics_file, "a", encoding="utf-8"
                )
            record = {
                "t": self.transport.now(),
                "replica": self.config.replica_id,
            }
            record.update(self.registry.snapshot())
            self._metrics_sink.write(json.dumps(record, separators=(",", ":")) + "\n")
            self._metrics_sink.flush()
        except OSError as exc:  # a full disk must not kill the replica
            logger.warning(
                "replica %d metrics snapshot failed: %s", self.config.replica_id, exc
            )

    # -- inbound path -------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Read frames from one peer/client connection until EOF.

        The read side is batched twice over: the :class:`FrameReader`
        surfaces every frame a socket read delivered in one ``await``, and a
        super-frame expands into its packed envelopes.  Large batches are
        decoded on the worker pool, keeping the hashing/parsing off the
        consensus event loop.
        """
        assert self.transport is not None and self.replica is not None
        registered: int | None = None
        self._connections.add(writer)
        frames = FrameReader(reader)
        try:
            serving = True
            while serving:
                payloads = await frames.read_batch()
                if payloads is None:
                    break
                self._c_bytes_in.inc(sum(map(len, payloads)))
                for entry in await self._decode_batch(payloads):
                    if isinstance(entry, WireCodecError):
                        logger.warning(
                            "replica %d dropping frame: %s",
                            self.config.replica_id,
                            entry,
                        )
                        continue
                    sender, message = entry
                    registered, serving = await self._dispatch(
                        sender, message, writer, registered
                    )
                    if not serving:
                        break
        except (FrameError, ConnectionError, OSError) as exc:
            logger.debug("replica %d connection error: %s", self.config.replica_id, exc)
        finally:
            self._connections.discard(writer)
            if registered is not None:
                self.transport.unregister_stream(registered)
            writer.close()

    async def _decode_batch(
        self, payloads: list[bytes]
    ) -> list[tuple[int, Any] | WireCodecError]:
        """Decode one read's worth of frame payloads to (sender, message)."""
        self._h_decode_batch.observe(len(payloads))
        pool = self.workers
        if (
            pool is not None
            and pool.workers
            and sum(map(len, payloads)) >= OFFLOAD_MIN_BYTES
        ):
            self._c_decode_offloaded.inc()
            return await pool.decode(payloads)
        self._c_decode_inline.inc()
        return decode_payloads(payloads)

    async def _dispatch(
        self,
        sender: int,
        message: Any,
        writer: asyncio.StreamWriter,
        registered: int | None,
    ) -> tuple[int | None, bool]:
        """Route one decoded message; returns (registered, keep serving)."""
        assert self.transport is not None and self.replica is not None
        if isinstance(message, Hello):
            if message.role == "client":
                registered = message.node_id
                self.transport.register_stream(registered, writer)
            return registered, True
        if isinstance(message, StatusRequest):
            await self._send(writer, self.status(message.nonce))
            return registered, True
        if isinstance(message, MetricsRequest):
            await self._send(writer, self.metrics_reply(message.nonce))
            return registered, True
        if isinstance(message, RecoveryRequest):
            await self._send_recovery(writer, message)
            return registered, True
        if isinstance(message, LinkUpdate):
            # Chaos control plane: replace the partition-blocked peer set.
            # The set is absolute (not a delta), so replayed or reordered
            # updates are idempotent.
            healed = self.transport.blocked - frozenset(message.blocked)
            self.transport.set_blocked_peers(message.blocked)
            logger.info(
                "replica %d link update: blocked peers %s",
                self.config.replica_id,
                list(message.blocked) or "none",
            )
            if healed:
                # A heal: every frame dropped during the partition is gone
                # for good, and with no post-heal traffic the wedge detector
                # has nothing to compare against.  Sweep state transfer for
                # a settle window — a caught-up replica transfers nothing.
                self._sweep_until = max(
                    self._sweep_until,
                    self.transport.now() + CATCH_UP_SETTLE_SECONDS,
                )
            return registered, True
        if isinstance(message, ShutdownRequest):
            logger.info(
                "replica %d shutting down: %s",
                self.config.replica_id,
                message.reason or "requested",
            )
            self.stop()
            return registered, False
        # Route replies to clients over their inbound connection even
        # without an explicit Hello (robustness for simple clients).
        if registered is None and sender not in self.transport.peers:
            registered = sender
            self.transport.register_stream(sender, writer)
        self.replica.receive(sender, message)
        return registered, True

    async def _send(self, writer: asyncio.StreamWriter, message: Any) -> None:
        """Write one envelope straight to ``writer`` (control-plane traffic
        that bypasses the transport's queues)."""
        await write_frame(writer, encode_envelope(self.config.replica_id, message))

    # -- crash recovery / state transfer ------------------------------------

    async def _state_transfer(self) -> tuple[int, list[int]]:
        """Pull the committed state this replica is missing from its peers.

        Runs with the listen socket already open, so the transfer window and
        live consensus traffic overlap: everything committed up to the last
        fetch arrives here, everything after arrives as ordinary consensus
        messages.  A block that commits cluster-side right inside the
        hand-off (its pre-prepare predates our socket, its commit postdates
        the last fetch) is recovered by the normal view-change path — the
        new-view message re-carries undelivered proposals.  Returns the
        number of transferred blocks and the highest installed view seen
        per instance.
        """
        assert self.replica is not None
        views = [0] * self.replica.core.config.num_instances
        transferred = 0
        for peer_id, endpoint in enumerate(self.config.peers):
            if peer_id == self.config.replica_id:
                continue
            if self.transport is not None and peer_id in self.transport.blocked:
                # Recovery dials fresh sockets, which would tunnel straight
                # through an active partition rule; an unreachable peer must
                # stay unreachable for state transfer too.
                continue
            try:
                fetched, peer_views = await asyncio.wait_for(
                    self._fetch_from_peer(endpoint), timeout=30.0
                )
            except (OSError, ConnectionError, asyncio.TimeoutError,
                    FrameError, WireCodecError) as exc:
                logger.debug(
                    "replica %d state transfer from peer %d failed: %s",
                    self.config.replica_id,
                    peer_id,
                    exc,
                )
                continue
            transferred += fetched
            for instance, view in enumerate(peer_views[: len(views)]):
                views[instance] = max(views[instance], view)
        return transferred, views

    async def _fetch_from_peer(
        self, endpoint: tuple[str, int]
    ) -> tuple[int, tuple[int, ...]]:
        """Request snapshot + block batches from one peer until caught up."""
        assert self.replica is not None
        reader, writer = await connect_endpoint(endpoint)
        fetched = 0
        views: tuple[int, ...] = ()
        try:
            frames = FrameReader(reader)
            await self._send(writer, Hello(self.config.replica_id, role="replica"))
            nonce = 0
            while True:
                nonce += 1
                request = RecoveryRequest(
                    nonce=nonce,
                    replica=self.config.replica_id,
                    frontier=tuple(
                        self.replica.core.delivered_state().sequence_numbers
                    ),
                )
                await self._send(writer, request)
                reply = await self._read_recovery_reply(frames, nonce)
                if reply is None:
                    break
                views = reply.views
                progressed = self._apply_recovery_reply(reply)
                fetched += progressed
                if progressed == 0:
                    break
        finally:
            writer.close()
        return fetched, views

    async def _read_recovery_reply(
        self, frames: FrameReader, nonce: int
    ) -> RecoveryReply | None:
        """Next :class:`RecoveryReply` matching ``nonce`` on the connection."""
        while True:
            payloads = await asyncio.wait_for(frames.read_batch(), timeout=10.0)
            if payloads is None:
                return None
            for entry in decode_payloads(payloads):
                if isinstance(entry, WireCodecError):
                    continue
                _, message = entry
                if isinstance(message, RecoveryReply) and message.nonce == nonce:
                    return message

    def _apply_recovery_reply(self, reply: RecoveryReply) -> int:
        """Apply one transfer reply; returns a progress count (0 = done)."""
        assert self.replica is not None
        snapshot_restored = False
        if reply.snapshot:
            try:
                snapshot = json.loads(reply.snapshot)
            except ValueError:
                snapshot = None
            if isinstance(snapshot, dict):
                snapshot_restored = self._maybe_restore_snapshot(snapshot, reply)
        core = self.replica.core
        delivered = list(core.delivered_state().sequence_numbers)
        applied = 0
        for data in reply.blocks:
            try:
                block = _decode_block(data)
            except (KeyError, ValueError, TypeError):
                continue
            if block.instance >= len(delivered):
                continue
            if block.sequence_number != delivered[block.instance] + 1:
                # Either already delivered, or a hole: a compacted peer WAL
                # starts at that peer's own snapshot frontier, so when its
                # snapshot was not adoptable the served blocks may skip
                # sequences we still need.  Executing across a gap would
                # silently diverge the state machine — stop at the hole and
                # let the watchdog retry against another (or a fresher) peer.
                continue
            core.on_block_delivered(block)
            delivered[block.instance] = block.sequence_number
            if self.durability is not None:
                self.durability.record_transferred_block(block)
            applied += 1
        if applied or snapshot_restored:
            # Epochs completed during transfer replay are already quorum-
            # stable cluster-side; don't re-broadcast votes for them.
            pending = getattr(core, "pending_checkpoints", None)
            if pending:
                pending.clear()
        return applied + (1 if snapshot_restored and applied == 0 else 0)

    def _maybe_restore_snapshot(
        self, snapshot: dict[str, Any], reply: RecoveryReply
    ) -> bool:
        """Adopt a transferred snapshot when it strictly extends our state.

        Restoring is a wholesale overwrite onto a freshly built core, so it
        is only safe when the snapshot's delivered frontier covers every
        block this replica already replayed.  The snapshot self-verifies
        against its recorded state digest and is cross-checked against the
        quorum-stable checkpoint digest the peer pinned in the reply.
        """
        assert self.replica is not None
        delivered = list(self.replica.core.delivered_state().sequence_numbers)
        try:
            snap_delivered = [int(v) for v in snapshot.get("delivered", [])]
        except (ValueError, TypeError):
            return False
        if len(snap_delivered) != len(delivered):
            return False
        if not all(s >= d for s, d in zip(snap_delivered, delivered)):
            return False
        if snap_delivered == delivered:
            return False
        if (
            reply.checkpoint_digest
            and int(snapshot.get("epoch", -2)) == reply.checkpoint_epoch
            and snapshot.get("checkpoint_digest") != reply.checkpoint_digest
        ):
            logger.warning(
                "replica %d rejecting transferred snapshot: checkpoint digest "
                "does not match the quorum-stable digest for epoch %d",
                self.config.replica_id,
                reply.checkpoint_epoch,
            )
            return False
        fresh = self.config.build_core()
        try:
            restore_core(fresh, snapshot)
        except SnapshotError as exc:
            logger.warning(
                "replica %d rejecting transferred snapshot: %s",
                self.config.replica_id,
                exc,
            )
            return False
        self.replica.core = fresh
        logger.info(
            "replica %d restored peer snapshot at epoch %s",
            self.config.replica_id,
            snapshot.get("epoch"),
        )
        return True

    # -- post-start catch-up --------------------------------------------------

    def _arm_catch_up(self) -> None:
        """Watch for a wedged delivery frontier and heal it by state transfer.

        PBFT delivers strictly in order and this transport does not
        retransmit lost frames: a pre-prepare or commit broadcast while a
        peer's writer was still reconnecting after our restart is gone for
        good, and every later slot of that instance then piles up behind the
        hole.  The watchdog fires when the frontier made no progress over a
        whole interval while some slot beyond it has already started — live
        evidence the cluster moved on without us — and re-runs the same
        state transfer the startup path uses, then re-aligns the endpoints.
        A healthy replica never triggers it (either the frontier moves, or
        nothing beyond it has started), so the steady-state cost is one
        frontier comparison per interval.
        """
        assert self.transport is not None
        # Settle sweeps exist to cover the restart loss window, which only
        # durable replicas recover through; without durability the watchdog
        # is wedge-triggered only (until a heal bumps the sweep deadline).
        if self.durability is not None:
            self._sweep_until = self.transport.now() + CATCH_UP_SETTLE_SECONDS

        def tick() -> None:
            if self._stopped.is_set() or self.replica is None:
                return
            wedged = self._delivery_wedged()
            settling = (
                self.transport is not None
                and self.transport.now() < self._sweep_until
            )
            if (self._catch_up_task is None or self._catch_up_task.done()) and (
                wedged or settling
            ):
                self._catch_up_task = asyncio.get_running_loop().create_task(
                    self._catch_up()
                )
            if self.transport is not None:
                self.transport.set_timer(CATCH_UP_INTERVAL, tick)

        self.transport.set_timer(CATCH_UP_INTERVAL, tick)

    def _delivery_wedged(self) -> bool:
        """True when some instance stalled behind slots the cluster started.

        Per-instance on purpose: a replica wedged on one instance keeps
        proposing no-ops on the instances it leads (the global orderer has
        blocks waiting on the bar), so the frontier as a whole never stops
        moving — only the wedged instance's component does.
        """
        assert self.replica is not None
        delivered = tuple(self.replica.core.delivered_state().sequence_numbers)
        previous = self._catch_up_frontier
        self._catch_up_frontier = delivered
        if previous is None or len(previous) != len(delivered):
            return False
        return any(
            delivered[instance] == previous[instance]
            and endpoint.slots.highest_started() > delivered[instance]
            for instance, endpoint in self.replica.endpoints.items()
        )

    async def _catch_up(self) -> None:
        transferred, views = await self._state_transfer()
        if self.replica is None or self._stopped.is_set():
            return
        if transferred:
            # Same re-alignment as startup: drop slots below the new
            # frontier (their sequence numbers are spoken for) and install
            # any views the cluster moved to while we were deaf.
            self.replica.fast_forward(views)
            self.catch_ups += 1
            logger.info(
                "replica %d caught up: %d blocks via live state transfer",
                self.config.replica_id,
                transferred,
            )
            # Progress extends the sweep: a round that still moved blocks
            # means we are chasing a head that advanced while we fetched,
            # so a fixed heal+settle deadline can expire mid-chase.  The
            # first round that transfers nothing lets the deadline stand —
            # we are converged (or wedge detection takes over).
            if self.transport is not None:
                self._sweep_until = max(
                    self._sweep_until,
                    self.transport.now() + CATCH_UP_SETTLE_SECONDS,
                )
        else:
            logger.debug(
                "replica %d catch-up round transferred nothing",
                self.config.replica_id,
            )

    async def _send_recovery(
        self, writer: asyncio.StreamWriter, request: RecoveryRequest
    ) -> None:
        """Answer a recovering peer with our snapshot and missing blocks."""
        assert self.replica is not None
        core = self.replica.core
        width = core.config.num_instances
        requestor_frontier = list(request.frontier)
        if len(requestor_frontier) != width:
            requestor_frontier = (requestor_frontier + [-1] * width)[:width]
        # History is the WAL: a replica keeps a delivered block in memory only
        # until it has executed it, so one running without durability has
        # nothing to hand over but its frontier and views.  A global prefix
        # of delivery-ordered blocks keeps every instance's subsequence a
        # prefix too, so the requestor can apply it directly.
        blocks = (
            self.durability.wal_blocks_above(requestor_frontier)[:RECOVERY_BLOCK_BATCH]
            if self.durability is not None
            else []
        )
        checkpoint_epoch = self.replica.latest_stable_epoch()
        checkpoint_digest = (
            self.replica.stable_checkpoint_digest(checkpoint_epoch) or ""
            if checkpoint_epoch >= 0
            else ""
        )
        snapshot_text = ""
        if self.durability is not None:
            snapshot = self.durability.latest_snapshot()
            if snapshot is not None:
                snap_delivered = snapshot.get("delivered", [])
                if any(
                    int(s) > r
                    for s, r in zip(snap_delivered, requestor_frontier)
                ):
                    snapshot_text = json.dumps(
                        snapshot, sort_keys=True, separators=(",", ":")
                    )
        reply = RecoveryReply(
            nonce=request.nonce,
            replica=self.config.replica_id,
            frontier=tuple(core.delivered_state().sequence_numbers),
            views=tuple(
                self.replica.endpoints[instance].view for instance in range(width)
            ),
            checkpoint_epoch=checkpoint_epoch,
            checkpoint_digest=checkpoint_digest,
            snapshot=snapshot_text,
            blocks=tuple(_encode_block(block) for block in blocks),
        )
        await self._send(writer, reply)

    # -- introspection ------------------------------------------------------

    def metrics_reply(self, nonce: int = 0) -> MetricsReply:
        """Registry snapshot as a control-plane reply (empty = obs off)."""
        uptime = 0.0
        if self.transport is not None and self.started_at is not None:
            uptime = self.transport.now() - self.started_at
        return MetricsReply(
            nonce=nonce,
            replica=self.config.replica_id,
            uptime=uptime,
            metrics=self.registry.snapshot(),
        )

    def status(self, nonce: int = 0) -> StatusReply:
        """Snapshot of this replica's progress (control plane)."""
        assert self.replica is not None
        core = self.replica.core
        return StatusReply(
            nonce=nonce,
            replica=self.config.replica_id,
            committed=self.metrics.committed,
            rejected=self.metrics.rejected,
            state_digest=core.store.state_digest(),
            delivered_frontier=tuple(core.delivered_state().sequence_numbers),
            view_changes=sum(
                endpoint.view_changes_completed
                for endpoint in self.replica.endpoints.values()
            ),
            stage_breakdown=self.metrics.latency.stage_breakdown_partial(),
        )


async def run_server(config: ReplicaRuntimeConfig) -> None:
    """Entry point used by ``repro serve``."""
    server = ReplicaServer(config)
    await server.start()
    # SIGTERM (the supervisor's polite stop) must run the full shutdown
    # path: it flushes the WAL tail past the last fsync batch and writes
    # the final metrics snapshot.  Only SIGKILL should look like a crash.
    loop = asyncio.get_running_loop()
    try:
        loop.add_signal_handler(signal.SIGTERM, server.stop)
    except (NotImplementedError, RuntimeError):  # non-Unix loops
        pass
    try:
        await server.serve_forever()
    finally:
        try:
            loop.remove_signal_handler(signal.SIGTERM)
        except (NotImplementedError, RuntimeError, ValueError):
            pass
