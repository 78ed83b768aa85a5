"""Asyncio TCP implementation of the :class:`~repro.net.transport.NodeTransport`.

One :class:`AsyncioTransport` lives inside each replica server (and inside
each client).  It maintains one outbound connection per replica peer — opened
lazily, re-opened with backoff on failure — and a routing table of inbound
client connections registered by the hosting server.  ``send`` and
``broadcast`` are synchronous (the consensus state machine calls them from
message handlers); frames are queued and written by per-peer writer tasks.
Each writer task drains its queue in batches: every frame that is already due
is coalesced into one buffer and flushed with a single ``write`` + ``drain``,
so a burst of consensus messages costs one syscall round, not one per frame.

Every connection opens with a ``hello`` naming the caller and its role, and
every frame carries the codec's one binary envelope, so ``broadcast``
encodes a message once for all peers.  A coalesced batch of more than one
frame goes out as a *super-frame* (one length-prefixed frame packing many
envelopes, see :mod:`repro.runtime.framing`), so a burst costs the receiver
one frame parse instead of one per message.

Endpoints whose host is ``unix:<path>`` are dialled as Unix domain sockets —
for co-located replicas this skips the TCP/IP stack entirely.

Everything runs on a single event loop, so consensus callbacks are serialised
exactly as they are under the discrete-event simulator — the state machine
needs no locks in either world.
"""

from __future__ import annotations

import asyncio
import logging
import os
import random
from typing import Any, Callable, Iterable

from repro.obs.registry import MetricsRegistry, NullRegistry
from repro.runtime.codec import encode_envelope
from repro.runtime.config import is_uds_endpoint, uds_path
from repro.runtime.control import Hello
from repro.runtime.framing import encode_frame, encode_super_frame, write_frame

logger = logging.getLogger(__name__)

#: Frames queued per peer before the oldest are dropped (backpressure cap).
OUTBOUND_QUEUE_LIMIT = 10_000

#: User-space bytes buffered towards one registered (client) stream before
#: further frames to it are dropped — a stalled client must not balloon the
#: replica's memory with unsent replies.
STREAM_BUFFER_LIMIT = 4 * 1024 * 1024

#: Frames coalesced into one write/drain round at most (bounds the burst a
#: single flush may buffer in user space).
WRITE_BATCH_LIMIT = 256

#: Reconnect backoff bounds (seconds).  Sleeps are jittered (+-50%) so the
#: heal of a partition or a mass restart does not synchronise every peer's
#: redial into one thundering herd.
RECONNECT_INITIAL = 0.05
RECONNECT_MAX = 1.0

#: Redial pause while the destination is blocked by a partition rule: there
#: is no point dialling a peer whose frames would be dropped anyway, so the
#: writer idles at this (jittered) cadence until the rule heals.
PARTITION_RETRY = 0.5

#: Payload bytes coalesced into one super-frame at most.  Well under
#: MAX_FRAME_BYTES so a batch of large blocks can never produce an
#: over-length frame.
SUPER_FRAME_BYTES_LIMIT = 8 * 1024 * 1024


async def connect_endpoint(
    endpoint: tuple[str, int],
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open a stream to ``endpoint`` — TCP, or UDS for ``unix:`` hosts."""
    if is_uds_endpoint(endpoint):
        return await asyncio.open_unix_connection(uds_path(endpoint))
    host, port = endpoint
    return await asyncio.open_connection(host, port)


async def start_endpoint_server(
    client_connected_cb: Callable, endpoint: tuple[str, int]
) -> asyncio.Server:
    """Listen on ``endpoint`` — TCP, or UDS for ``unix:`` hosts."""
    if is_uds_endpoint(endpoint):
        path = uds_path(endpoint)
        try:
            os.unlink(path)  # a stale socket file would refuse the bind
        except FileNotFoundError:
            pass
        return await asyncio.start_unix_server(client_connected_cb, path)
    host, port = endpoint
    return await asyncio.start_server(client_connected_cb, host, port)


def install_uvloop() -> bool:
    """Install uvloop's event-loop policy when available.

    Opportunistic: the package is optional, so this is a silent no-op when it
    is not importable.  ``REPRO_NO_UVLOOP=1`` disables it even when installed
    (uvloop trades some debuggability and signal semantics for speed).
    Call before ``asyncio.run``.
    """
    if os.environ.get("REPRO_NO_UVLOOP"):
        return False
    try:
        import uvloop
    except ImportError:
        return False
    uvloop.install()
    return True


class LiveTimer:
    """Cancellable timer over ``loop.call_later`` (TimerHandle protocol)."""

    __slots__ = ("_handle", "active")

    def __init__(self) -> None:
        self._handle: asyncio.TimerHandle | None = None
        self.active = True

    def _arm(self, handle: asyncio.TimerHandle) -> None:
        self._handle = handle

    def _fired(self) -> None:
        self.active = False

    def cancel(self) -> None:
        if self.active and self._handle is not None:
            self._handle.cancel()
        self.active = False


class AsyncioTransport:
    """Live NodeTransport: length-prefixed framed messages over TCP.

    With ``send_delay`` set (straggler injection), every outbound
    replica-to-replica frame becomes *due* ``send_delay`` seconds after it is
    queued and is written no earlier than that.  Frames are therefore
    uniformly late but still pipelined — added latency, not a throughput
    cap — which is how a slow-but-correct replica degrades in the paper's
    straggler experiments.
    """

    def __init__(
        self,
        node_id: int,
        peers: dict[int, tuple[str, int]],
        *,
        role: str = "replica",
        send_delay: float = 0.0,
        peer_delay: dict[int, float] | None = None,
        registry: MetricsRegistry | NullRegistry | None = None,
    ) -> None:
        self.node_id = node_id
        self.peers = dict(peers)
        self.role = role
        #: Chaos knob: seconds each outbound replica-to-replica frame is held
        #: before hitting the socket (straggler injection; 0.0 = healthy).
        self.send_delay = max(0.0, send_delay)
        #: WAN emulation: additional per-destination one-way delay (seconds),
        #: composing additively with ``send_delay`` on the same due-time
        #: mechanism — a straggler in a far region is late for both reasons.
        self.peer_delay: dict[int, float] = {
            peer: max(0.0, float(delay))
            for peer, delay in (peer_delay or {}).items()
        }
        #: Partition fault injection: peer ids this node must not send to.
        #: Frames towards a blocked peer are dropped — at enqueue time for
        #: new sends and at drain time for frames queued before the rule
        #: landed, so a heal never replays a stale pre-partition view.
        self.blocked: frozenset[int] = frozenset()
        #: Chaos knob: optional predicate deciding whether an outbound
        #: message may leave this node at all (Byzantine abstention drops
        #: consensus messages for instances the replica does not lead).
        #: Returning False silently discards the message.
        self.outbound_filter: Callable[[Any], bool] | None = None
        #: Reconnect jitter source, seeded by the node id so one node's
        #: redial schedule does not depend on global ``random`` state.
        self._jitter = random.Random(node_id)
        self._loop = asyncio.get_running_loop()
        #: Per-peer frame queues; entries are ``(due_time, frame)`` where
        #: ``due_time`` is 0.0 on the healthy fast path.
        self._queues: dict[int, asyncio.Queue[tuple[float, bytes]]] = {}
        self._writer_tasks: dict[int, asyncio.Task[None]] = {}
        self._streams: dict[int, asyncio.StreamWriter] = {}
        #: Frames queued towards registered (client) streams, flushed once
        #: per loop iteration so a burst of replies coalesces.
        self._stream_pending: dict[int, list[bytes]] = {}
        self._timers: list[LiveTimer] = []
        self._closed = False
        #: Observability: named registry instruments.  Transports are
        #: live-only objects, so the default is a private *real* registry —
        #: counters always count; the hosting server passes its own registry
        #: so transport instruments land in the process-wide snapshot (or the
        #: inert registry under ``--no-obs``).
        self.registry = registry if registry is not None else MetricsRegistry()
        self._c_frames_sent = self.registry.counter("transport.frames_sent")
        self._c_frames_dropped = self.registry.counter("transport.frames_dropped")
        self._c_frames_filtered = self.registry.counter("transport.frames_filtered")
        self._c_frames_encoded = self.registry.counter("transport.frames_encoded")
        self._c_super_frames_sent = self.registry.counter("transport.super_frames_sent")
        self._c_bytes_out = self.registry.counter("transport.bytes_out")
        self._c_reconnects = self.registry.counter("transport.reconnects")
        self._c_partition_drops = self.registry.counter("transport.partition_drops")
        self.registry.gauge_fn(
            "transport.queue_depth",
            lambda: sum(queue.qsize() for queue in self._queues.values()),
        )
        self.registry.gauge_fn(
            "transport.queue_depth_max",
            lambda: max(
                (queue.qsize() for queue in self._queues.values()), default=0
            ),
        )

    # -- legacy counter attributes (read by tests and reports) ---------------

    @property
    def frames_sent(self) -> int:
        return self._c_frames_sent.value

    @property
    def frames_dropped(self) -> int:
        return self._c_frames_dropped.value

    @property
    def frames_filtered(self) -> int:
        return self._c_frames_filtered.value

    @property
    def frames_encoded(self) -> int:
        """Envelope encodings performed (a broadcast encodes once, not once
        per destination)."""
        return self._c_frames_encoded.value

    @property
    def super_frames_sent(self) -> int:
        """Super-frames written (each carries >= 2 logical frames)."""
        return self._c_super_frames_sent.value

    @property
    def bytes_out(self) -> int:
        """Framed bytes handed to sockets (peers and client streams)."""
        return self._c_bytes_out.value

    @property
    def reconnects(self) -> int:
        """Peer connections re-established after a loss."""
        return self._c_reconnects.value

    @property
    def partition_drops(self) -> int:
        """Frames dropped because their destination was partition-blocked."""
        return self._c_partition_drops.value

    # -- partition fault injection -------------------------------------------

    def set_blocked_peers(self, blocked: Iterable[int]) -> None:
        """Replace the blocked-peer set (absolute, not a delta).

        Frames already queued towards a newly blocked peer are purged on the
        spot: the partition semantics are "the network dropped it", so a
        heal must not flush a backlog of stale pre-partition traffic (old
        views, superseded proposals) into the reconnected peer.
        """
        new_blocked = frozenset(int(peer) for peer in blocked)
        for peer_id in new_blocked - self.blocked:
            queue = self._queues.get(peer_id)
            purged = 0
            while queue is not None:
                try:
                    queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                purged += 1
            if purged:
                self._c_partition_drops.inc(purged)
        self.blocked = new_blocked

    # -- clock --------------------------------------------------------------

    def now(self) -> float:
        """Raw monotonic clock (``loop.time()``).

        Deliberately *not* normalised to transport start: on a single host
        every process reads the same CLOCK_MONOTONIC, so client- and
        replica-side timestamps are directly comparable and the five-stage
        latency breakdown can span processes.  Across hosts the breakdown's
        cross-machine stages (send, reply) are only as good as the hosts'
        clock synchronisation.
        """
        return self._loop.time()

    # -- timers -------------------------------------------------------------

    def set_timer(self, delay: float, callback: Callable[[], Any]) -> LiveTimer:
        """Schedule ``callback`` on the event loop after ``delay`` seconds."""
        timer = LiveTimer()

        def fire() -> None:
            timer._fired()
            if not self._closed:
                callback()

        timer._arm(self._loop.call_later(max(0.0, delay), fire))
        self._timers.append(timer)
        if len(self._timers) > 256:
            self._timers = [t for t in self._timers if t.active]
        return timer

    def cancel_timers(self) -> None:
        """Cancel every timer set through this transport and still pending."""
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()

    # -- sending ------------------------------------------------------------

    def _encode(self, message: Any) -> bytes:
        self._c_frames_encoded.inc()
        return encode_envelope(self.node_id, message)

    def send(self, destination: int, message: Any) -> None:
        """Queue ``message`` for ``destination`` (peer or registered stream)."""
        if self._closed:
            return
        if self.outbound_filter is not None and not self.outbound_filter(message):
            self._c_frames_filtered.inc()
            return
        # Resolve the route before encoding: a dead destination or a closed
        # transport must not pay for serialisation.
        if destination in self.peers:
            if destination in self.blocked:
                # Partitioned link: the frame is what the network dropped.
                self._c_partition_drops.inc()
                return
            queue = self._ensure_peer(destination)
            frame = self._encode(message)
            if queue.full():
                # Drop-oldest keeps the writer from wedging the state machine
                # when a peer is down; PBFT tolerates message loss (retransmit
                # comes from view change / re-proposal).
                queue.get_nowait()
                self._c_frames_dropped.inc()
            queue.put_nowait((self._due_time(destination), frame))
        elif destination in self._streams:
            self._write_to_stream(destination, self._encode(message))
        else:
            self._c_frames_dropped.inc()

    def _due_time(self, destination: int) -> float:
        """Earliest write time for a frame queued now for ``destination``
        (0.0 = immediately).  Straggler delay and the destination's WAN
        delay compose additively on the same mechanism."""
        delay = self.send_delay + self.peer_delay.get(destination, 0.0)
        if delay <= 0.0:
            return 0.0
        return self._loop.time() + delay

    def broadcast(self, message: Any, include_self: bool = False) -> None:
        """Send ``message`` to every replica peer (not to client streams)."""
        if self._closed:
            return
        if self.outbound_filter is not None and not self.outbound_filter(message):
            self._c_frames_filtered.inc()
            return
        targets = [
            peer_id
            for peer_id in self.peers
            if include_self or peer_id != self.node_id
        ]
        if not targets:
            return
        frame = None
        for peer_id in targets:
            if peer_id in self.blocked:
                self._c_partition_drops.inc()
                continue
            if frame is None:
                frame = self._encode(message)
            queue = self._ensure_peer(peer_id)
            if queue.full():
                queue.get_nowait()
                self._c_frames_dropped.inc()
            # Due times are per destination: under WAN emulation one
            # broadcast lands at different regions at different times.
            queue.put_nowait((self._due_time(peer_id), frame))

    def _write_to_stream(self, destination: int, frame: bytes) -> None:
        # Defer the actual write one loop iteration: every reply generated
        # by the current callback burst lands in one flush (and one
        # super-frame) instead of one syscall per reply.
        pending = self._stream_pending.get(destination)
        if pending is None:
            self._stream_pending[destination] = [frame]
            self._loop.call_soon(self._flush_stream, destination)
        else:
            pending.append(frame)

    def _flush_stream(self, destination: int) -> None:
        frames = self._stream_pending.pop(destination, None)
        if not frames or self._closed:
            return
        writer = self._streams.get(destination)
        if writer is None or writer.is_closing():
            self._streams.pop(destination, None)
            self._c_frames_dropped.inc(len(frames))
            return
        if writer.transport.get_write_buffer_size() > STREAM_BUFFER_LIMIT:
            # The client stopped reading; drop rather than buffer without
            # bound (it can recover the result by retransmitting).
            self._c_frames_dropped.inc(len(frames))
            return
        if len(frames) > 1 and sum(map(len, frames)) <= SUPER_FRAME_BYTES_LIMIT:
            buffer = encode_frame(encode_super_frame(frames))
            writer.write(buffer)
            self._c_super_frames_sent.inc()
        else:
            buffer = b"".join(map(encode_frame, frames))
            writer.write(buffer)
        self._c_frames_sent.inc(len(frames))
        self._c_bytes_out.inc(len(buffer))

    # -- inbound stream registry (clients replying over their own socket) ----

    def register_stream(self, node_id: int, writer: asyncio.StreamWriter) -> None:
        """Route future sends to ``node_id`` over an inbound connection."""
        self._streams[node_id] = writer

    def unregister_stream(self, node_id: int) -> None:
        if node_id in self._streams:
            del self._streams[node_id]
        self._stream_pending.pop(node_id, None)

    # -- outbound connections ------------------------------------------------

    def jittered(self, seconds: float) -> float:
        """``seconds`` scaled by a uniform factor in [0.5, 1.5) (redial jitter)."""
        return seconds * (0.5 + self._jitter.random())

    def _ensure_peer(self, peer_id: int) -> "asyncio.Queue[tuple[float, bytes]]":
        queue = self._queues.get(peer_id)
        if queue is None:
            queue = asyncio.Queue(maxsize=OUTBOUND_QUEUE_LIMIT)
            self._queues[peer_id] = queue
            self._writer_tasks[peer_id] = self._loop.create_task(
                self._peer_writer(peer_id, queue)
            )
        return queue

    async def _peer_writer(
        self, peer_id: int, queue: "asyncio.Queue[tuple[float, bytes]]"
    ) -> None:
        """Connect to one peer (with backoff) and drain its frame queue.

        The drain is batched: after blocking for the first due frame, every
        further frame that is already due is appended to the same buffer, and
        the whole batch goes out with one ``write`` + ``drain``.  A frame
        whose due time is still in the future is carried over to the next
        round so straggler delays stay per-frame accurate.
        """
        endpoint = self.peers[peer_id]
        backoff = RECONNECT_INITIAL
        carry: tuple[float, bytes] | None = None
        connected_before = False
        while not self._closed:
            if peer_id in self.blocked:
                # An active partition rule covers this link: do not redial a
                # peer whose frames would be dropped anyway (a tight dial
                # loop here is exactly the heal-time reconnect storm), just
                # purge whatever queued meanwhile and idle with jitter.
                purged = 0
                while True:
                    try:
                        queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    purged += 1
                if carry is not None:
                    carry = None
                    purged += 1
                if purged:
                    self._c_partition_drops.inc(purged)
                await asyncio.sleep(self.jittered(PARTITION_RETRY))
                continue
            try:
                reader, writer = await connect_endpoint(endpoint)
            except OSError:
                # Jittered exponential backoff: after a heal or mass restart
                # every writer in the mesh wakes at once; the jitter spreads
                # the redials so the listener is not stampeded.
                await asyncio.sleep(self.jittered(backoff))
                backoff = min(backoff * 2, RECONNECT_MAX)
                continue
            backoff = RECONNECT_INITIAL
            if connected_before:
                self._c_reconnects.inc()
            connected_before = True
            try:
                await write_frame(
                    writer, encode_envelope(self.node_id, Hello(self.node_id, self.role))
                )
                while not self._closed:
                    if carry is not None:
                        due, frame = carry
                        carry = None
                    else:
                        due, frame = await queue.get()
                    if peer_id in self.blocked:
                        # The partition rule landed mid-connection: drop the
                        # frame and sever the link; the outer loop idles until
                        # the rule heals.
                        self._c_partition_drops.inc()
                        break
                    if due > 0.0:
                        # Straggler injection: honour the frame's due time.
                        # Frames queued while this one waited share the same
                        # wait, so the delay pipelines (uniform added
                        # latency) instead of capping throughput.
                        remaining = due - self._loop.time()
                        if remaining > 0:
                            await asyncio.sleep(remaining)
                    batch = [frame]
                    batch_bytes = len(frame)
                    while len(batch) < WRITE_BATCH_LIMIT:
                        try:
                            next_due, next_frame = queue.get_nowait()
                        except asyncio.QueueEmpty:
                            break
                        if (next_due > 0.0 and next_due > self._loop.time()) or (
                            batch_bytes + len(next_frame) > SUPER_FRAME_BYTES_LIMIT
                        ):
                            # Not yet due (straggler delay) or the batch is
                            # full by bytes: carry into the next round.
                            carry = (next_due, next_frame)
                            break
                        batch.append(next_frame)
                        batch_bytes += len(next_frame)
                    if len(batch) > 1:
                        buffer = encode_frame(encode_super_frame(batch))
                        self._c_super_frames_sent.inc()
                    else:
                        buffer = b"".join(map(encode_frame, batch))
                    writer.write(buffer)
                    self._c_frames_sent.inc(len(batch))
                    self._c_bytes_out.inc(len(buffer))
                    await writer.drain()
            except (OSError, ConnectionError, asyncio.CancelledError) as exc:
                if isinstance(exc, asyncio.CancelledError):
                    raise
                logger.debug("node %d lost connection to peer %d", self.node_id, peer_id)
            finally:
                writer.close()

    # -- shutdown -------------------------------------------------------------

    async def close(self) -> None:
        """Cancel timers and writer tasks, close all outbound connections."""
        self._closed = True
        self.cancel_timers()
        for task in self._writer_tasks.values():
            task.cancel()
        await asyncio.gather(*self._writer_tasks.values(), return_exceptions=True)
        self._writer_tasks.clear()
        self._queues.clear()
        self._streams.clear()
        self._stream_pending.clear()
