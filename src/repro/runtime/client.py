"""Async client library for live Orthrus clusters.

:class:`OrthrusClient` mirrors the paper's measurement methodology: a
transaction is submitted to ``fanout`` replicas and counts as finished when
``f + 1`` replicas have replied with the *same* result — matching replies,
not just any replies.  Requests are pipelined (any number may be in flight),
and unanswered submissions are retransmitted after a timeout, up to a retry
budget.  Each connection opens with a client ``hello`` (so the replica routes
replies back over it) and then carries the codec's binary envelopes; the
submissions a loop iteration queues for one replica go out as one write,
packed into a super-frame when there are several.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
from dataclasses import dataclass

from repro.cluster.messages import ClientRequest
from repro.errors import NetworkError
from repro.ledger.transactions import Transaction
from repro.runtime.codec import WireCodecError, decode_envelopes, encode_envelope
from repro.runtime.config import parse_endpoint
from repro.runtime.control import (
    Hello,
    MetricsReply,
    MetricsRequest,
    ShutdownRequest,
    StatusReply,
    StatusRequest,
)
from repro.runtime.framing import (
    FrameError,
    FrameReader,
    encode_frame,
    encode_super_frame,
    write_frame,
)
from repro.runtime.transport import connect_endpoint

logger = logging.getLogger(__name__)

#: Simultaneous connection attempts while dialling a cluster.
CONNECT_CONCURRENCY = 64

#: Simultaneous in-flight status probes per ``cluster_status`` call.
STATUS_PROBE_CONCURRENCY = 16


class ClientError(NetworkError):
    """The client could not complete a request."""


@dataclass(frozen=True)
class TxResult:
    """Outcome of one submission once ``f + 1`` matching replies arrived."""

    tx_id: str
    committed: bool
    replicas: tuple[int, ...]
    latency: float
    retries: int = 0
    #: Earliest replica-clock execution time seen in the matching replies
    #: (comparable to client time on a single host; see AsyncioTransport.now).
    confirmed_at: float | None = None


@dataclass
class ClientConfig:
    """Tunables for :class:`OrthrusClient`.

    Attributes:
        client_id: Node id this client identifies as (must not collide with a
            replica id or another client's id).
        fanout: Replicas each transaction is submitted to (default: all).
        timeout: Seconds to wait for a reply quorum before retransmitting.
        retries: Retransmissions before a submission fails.
        route_instances: Number of SB instances the cluster runs.  When set,
            first transmissions are *leader-routed*: each transaction goes to
            the view-0 leaders of its payer buckets (the same stable-hash
            partitioning the replicas use), topped up to a reply quorum of
            ``f + 1`` replicas — instead of to all ``fanout`` replicas.  Only
            replicas that received the request directly answer the client, so
            the quorum still forms while every other replica is spared the
            request decode.  Retransmissions always fall back to the full
            fanout, which keeps submissions live across view changes and
            crashed leaders (at the cost of one timeout).  Default off.
    """

    client_id: int = 1000
    fanout: int | None = None
    timeout: float = 5.0
    retries: int = 2
    route_instances: int | None = None


class _PendingTx:
    """Reply-matching state for one in-flight transaction.

    Timeouts are enforced by one shared sweeper task scanning deadlines (see
    :meth:`OrthrusClient._sweep_timeouts`), not a watcher task per
    submission — at thousands of transactions in flight, per-tx tasks cost
    more scheduler work than the submissions themselves.
    """

    __slots__ = (
        "future",
        "replies",
        "confirmed_at",
        "submitted_at",
        "retries",
        "deadline",
        "tx",
    )

    def __init__(
        self, future: asyncio.Future, tx: Transaction, deadline: float
    ) -> None:
        self.future = future
        self.replies: dict[int, bool] = {}
        self.confirmed_at: dict[int, float | None] = {}
        self.submitted_at = tx.submitted_at
        self.retries = 0
        self.deadline = deadline
        self.tx = tx


class OrthrusClient:
    """Pipelined async client with ``f + 1`` reply matching and retry."""

    def __init__(
        self,
        replicas: list[tuple[str, int] | str],
        config: ClientConfig | None = None,
    ) -> None:
        self.replicas = [
            parse_endpoint(entry) if isinstance(entry, str) else entry
            for entry in replicas
        ]
        self.config = config or ClientConfig()
        self.fault_tolerance = (len(self.replicas) - 1) // 3
        self.reply_quorum = self.fault_tolerance + 1
        self.fanout = self.config.fanout or len(self.replicas)
        self._partitioner = None
        if self.config.route_instances:
            from repro.core.partition import PayerPartitioner

            self._partitioner = PayerPartitioner(self.config.route_instances)
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._readers: list[asyncio.Task[None]] = []
        self._pending: dict[str, _PendingTx] = {}
        #: Request frames queued per replica, flushed once per loop iteration
        #: (a pipelined burst coalesces into one write and one super-frame).
        self._out_pending: dict[int, list[bytes]] = {}
        self._sweeper: asyncio.Task[None] | None = None
        self._status_waiters: dict[int, asyncio.Future[StatusReply]] = {}
        self._metrics_waiters: dict[int, asyncio.Future[MetricsReply]] = {}
        self._nonces = itertools.count(1)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closed = False
        #: Counters for reports and tests.
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.retransmissions = 0

    # -- connection management ---------------------------------------------

    async def connect(self, *, require_all: bool = True) -> None:
        """Open a connection to every replica and start reader tasks.

        Connections are dialled concurrently (bounded by
        ``CONNECT_CONCURRENCY``) — serially, a 100-replica cluster would pay
        one round-trip per replica before the first transaction could move.

        With ``require_all=False``, replicas that refuse the connection (for
        example crashed by a fault plan before the client arrived) are
        skipped as long as a reply quorum of ``f + 1`` remains reachable.
        """
        self._loop = asyncio.get_running_loop()
        hello = encode_envelope(
            self.config.client_id, Hello(self.config.client_id, role="client")
        )
        semaphore = asyncio.Semaphore(CONNECT_CONCURRENCY)

        async def dial(replica_id: int, endpoint: tuple[str, int]):
            async with semaphore:
                reader, writer = await connect_endpoint(endpoint)
                await write_frame(writer, hello)
                return replica_id, reader, writer

        results = await asyncio.gather(
            *(dial(i, endpoint) for i, endpoint in enumerate(self.replicas)),
            return_exceptions=True,
        )
        unreachable: list[int] = []
        opened: list[tuple[int, asyncio.StreamReader, asyncio.StreamWriter]] = []
        for replica_id, result in enumerate(results):
            if isinstance(result, BaseException):
                if not isinstance(result, OSError):
                    raise result
                unreachable.append(replica_id)
            else:
                opened.append(result)
        if unreachable and require_all:
            for _, _, writer in opened:
                writer.close()
            # Preserve the serial-connect contract: the dial failure itself.
            raise next(r for r in results if isinstance(r, OSError))
        for replica_id, reader, writer in opened:
            self._writers[replica_id] = writer
            self._readers.append(
                self._loop.create_task(self._read_replies(replica_id, reader))
            )
        if unreachable:
            logger.warning("client could not reach replicas %s", unreachable)
        if len(self._writers) < self.reply_quorum:
            raise ClientError(
                f"only {len(self._writers)} of {len(self.replicas)} replicas "
                f"reachable; a reply quorum needs {self.reply_quorum}"
            )

    async def close(self) -> None:
        """Stop readers and the timeout sweeper, fail in-flight futures,
        close sockets."""
        self._closed = True
        tasks = list(self._readers)
        if self._sweeper is not None:
            tasks.append(self._sweeper)
            self._sweeper = None
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._readers.clear()
        for pending in list(self._pending.values()):
            if not pending.future.done():
                pending.future.set_exception(ClientError("client closed"))
        self._pending.clear()
        self._out_pending.clear()
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()

    async def flush(self) -> None:
        """Drain every connection's send buffer (flow control for bursts)."""
        for replica_id in list(self._out_pending):
            self._flush_out(replica_id)
        for writer in list(self._writers.values()):
            if not writer.is_closing():
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass

    async def __aenter__(self) -> "OrthrusClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- submission ----------------------------------------------------------

    async def submit(self, tx: Transaction) -> TxResult:
        """Submit ``tx`` and wait for ``f + 1`` matching replies."""
        return await self.submit_nowait(tx)

    def submit_nowait(self, tx: Transaction) -> "asyncio.Future[TxResult]":
        """Submit ``tx`` and return a future (pipelined submission)."""
        assert self._loop is not None, "connect() first"
        if tx.tx_id in self._pending:
            raise ClientError(f"transaction {tx.tx_id} is already in flight")
        future: asyncio.Future[TxResult] = self._loop.create_future()
        tx.submitted_at = self._loop.time()
        pending = _PendingTx(future, tx, tx.submitted_at + self.config.timeout)
        self._pending[tx.tx_id] = pending
        self.submitted += 1
        self._transmit(tx)
        self._ensure_sweeper()
        return future

    def _route_targets(self, tx: Transaction) -> list[tuple[int, object]] | None:
        """Pick the view-0 bucket leaders for ``tx``, topped up to a quorum.

        Returns ``None`` when routing cannot guarantee a reply quorum (a
        routed leader is disconnected, or fewer than ``f + 1`` distinct
        replicas are reachable) — the caller then broadcasts instead.
        """
        assert self._partitioner is not None
        num_replicas = len(self.replicas)
        targets = {bucket % num_replicas for bucket in self._partitioner.buckets_for(tx)}
        # Top up with the replicas that follow the first leader so exactly
        # f + 1 replicas see the request and answer — the smallest set that
        # can still produce f + 1 matching replies.
        cursor = (min(targets) + 1) % num_replicas
        while len(targets) < self.reply_quorum:
            targets.add(cursor)
            cursor = (cursor + 1) % num_replicas
        picked = []
        for replica_id in sorted(targets):
            writer = self._writers.get(replica_id)
            if writer is None or writer.is_closing():
                return None
            picked.append((replica_id, writer))
        return picked

    def _transmit(self, tx: Transaction, *, broadcast: bool = False) -> None:
        frame = encode_envelope(
            self.config.client_id,
            ClientRequest(tx=tx, client_node=self.config.client_id),
        )
        targets = None
        if self._partitioner is not None and not broadcast:
            targets = self._route_targets(tx)
        if targets is None:
            targets = list(self._writers.items())[: self.fanout]
        for replica_id, writer in targets:
            if not writer.is_closing():
                self._queue_frame(replica_id, frame)

    def _queue_frame(self, replica_id: int, frame: bytes) -> None:
        # Defer the write one loop iteration so a pipelined burst of
        # submissions coalesces into one write per replica.
        pending = self._out_pending.get(replica_id)
        if pending is None:
            self._out_pending[replica_id] = [frame]
            assert self._loop is not None
            self._loop.call_soon(self._flush_out, replica_id)
        else:
            pending.append(frame)

    def _flush_out(self, replica_id: int) -> None:
        frames = self._out_pending.pop(replica_id, None)
        if not frames or self._closed:
            return
        writer = self._writers.get(replica_id)
        if writer is None or writer.is_closing():
            return
        if len(frames) > 1:
            writer.write(encode_frame(encode_super_frame(frames)))
        else:
            writer.write(b"".join(map(encode_frame, frames)))

    # -- timeouts -------------------------------------------------------------

    def _ensure_sweeper(self) -> None:
        if self._sweeper is None or self._sweeper.done():
            assert self._loop is not None
            self._sweeper = self._loop.create_task(self._sweep_timeouts())

    async def _sweep_timeouts(self) -> None:
        """Retransmit overdue submissions; fail them once retries run out.

        One task scans every pending deadline a few times per timeout
        period.  The scan is O(pending), but it replaces one sleeping task
        per in-flight transaction; the sweeper exits when nothing is pending
        and is re-created by the next submission.
        """
        assert self._loop is not None
        interval = max(0.02, min(0.25, self.config.timeout / 4))
        try:
            while not self._closed and self._pending:
                await asyncio.sleep(interval)
                now = self._loop.time()
                for tx_id, pending in list(self._pending.items()):
                    if pending.future.done() or pending.deadline > now:
                        continue
                    if pending.retries >= self.config.retries:
                        self._pending.pop(tx_id, None)
                        self.failed += 1
                        pending.future.set_exception(
                            ClientError(
                                f"no reply quorum for {tx_id} after "
                                f"{pending.retries} retries"
                            )
                        )
                        continue
                    pending.retries += 1
                    pending.deadline = now + self.config.timeout
                    self.retransmissions += 1
                    # Retransmissions broadcast even when routing is on: the
                    # routed leaders may have crashed or been demoted by a
                    # view change since the first attempt.
                    self._transmit(pending.tx, broadcast=True)
        finally:
            self._sweeper = None

    # -- replies --------------------------------------------------------------

    async def _read_replies(self, replica_id: int, reader: asyncio.StreamReader) -> None:
        frames = FrameReader(reader)
        try:
            while True:
                payloads = await frames.read_batch()
                if payloads is None:
                    break
                for payload in payloads:
                    try:
                        entries = decode_envelopes(payload)
                    except WireCodecError as exc:
                        logger.warning(
                            "client dropping frame from %d: %s", replica_id, exc
                        )
                        continue
                    for _, message in entries:
                        self._handle_reply(replica_id, message)
        except (FrameError, ConnectionError, OSError, asyncio.CancelledError) as exc:
            if isinstance(exc, asyncio.CancelledError):
                raise
            if not self._closed:
                logger.debug("client lost replica %d: %s", replica_id, exc)

    def _handle_reply(self, replica_id: int, message) -> None:
        if isinstance(message, StatusReply):
            waiter = self._status_waiters.pop(message.nonce, None)
            if waiter is not None and not waiter.done():
                waiter.set_result(message)
            return
        if isinstance(message, MetricsReply):
            metrics_waiter = self._metrics_waiters.pop(message.nonce, None)
            if metrics_waiter is not None and not metrics_waiter.done():
                metrics_waiter.set_result(message)
            return
        tx_id = getattr(message, "tx_id", None)
        if tx_id is None:
            return
        # A reply counts for the replica whose connection carried it: one
        # replica claiming other ids on its own socket must not forge f + 1.
        if message.replica != replica_id:
            logger.debug(
                "client dropping reply from %d claiming replica %d",
                replica_id,
                message.replica,
            )
            return
        self._record_reply(
            tx_id,
            replica_id,
            message.committed,
            getattr(message, "confirmed_at", None),
        )

    def _record_reply(
        self,
        tx_id: str,
        replica: int,
        committed: bool,
        confirmed_at: float | None = None,
    ) -> None:
        pending = self._pending.get(tx_id)
        if pending is None or pending.future.done():
            return
        pending.replies[replica] = committed
        pending.confirmed_at[replica] = confirmed_at
        # f + 1 *matching* replies: count agreement on the result value.
        for verdict in (True, False):
            matching = [r for r, c in pending.replies.items() if c is verdict]
            if len(matching) >= self.reply_quorum:
                assert self._loop is not None
                del self._pending[tx_id]
                self.completed += 1
                stamps = [
                    pending.confirmed_at[r]
                    for r in matching
                    if pending.confirmed_at.get(r) is not None
                ]
                pending.future.set_result(
                    TxResult(
                        tx_id=tx_id,
                        committed=verdict,
                        replicas=tuple(sorted(matching)),
                        latency=self._loop.time() - pending.submitted_at,
                        retries=pending.retries,
                        confirmed_at=min(stamps) if stamps else None,
                    )
                )
                return

    # -- control plane --------------------------------------------------------

    async def status(self, replica_id: int, *, timeout: float = 5.0) -> StatusReply:
        """Query one replica's progress snapshot."""
        assert self._loop is not None, "connect() first"
        writer = self._writers.get(replica_id)
        if writer is None or writer.is_closing():
            raise ClientError(f"no connection to replica {replica_id}")
        nonce = next(self._nonces)
        waiter: asyncio.Future[StatusReply] = self._loop.create_future()
        self._status_waiters[nonce] = waiter
        await write_frame(
            writer,
            encode_envelope(self.config.client_id, StatusRequest(nonce=nonce)),
        )
        try:
            return await asyncio.wait_for(waiter, timeout)
        except asyncio.TimeoutError:
            self._status_waiters.pop(nonce, None)
            raise ClientError(f"status request to replica {replica_id} timed out")

    async def cluster_status(
        self,
        *,
        require_all: bool = False,
        concurrency: int = STATUS_PROBE_CONCURRENCY,
    ) -> list[StatusReply]:
        """Query every connected replica (bounded-concurrency gather).

        By default replicas that died since connecting are skipped — during
        fault injection the interesting answer is the *survivors'* state.
        ``require_all=True`` restores the strict behaviour and raises on the
        first unreachable replica.  ``concurrency`` bounds the in-flight
        probes: all replicas are always queried, but at most this many waits
        are outstanding at once, so a 100-replica settle probe neither runs
        serially nor bursts 100 simultaneous timers.
        """
        semaphore = asyncio.Semaphore(max(1, concurrency))

        async def probe(replica_id: int) -> StatusReply:
            async with semaphore:
                return await self.status(replica_id)

        results = await asyncio.gather(
            *(probe(replica_id) for replica_id in list(self._writers)),
            return_exceptions=True,
        )
        statuses = [reply for reply in results if isinstance(reply, StatusReply)]
        if require_all and len(statuses) < len(results):
            errors = [r for r in results if not isinstance(r, StatusReply)]
            raise ClientError(f"status probe failed: {errors[0]}")
        if not statuses:
            raise ClientError("no replica answered a status probe")
        return statuses

    async def metrics(self, replica_id: int, *, timeout: float = 5.0) -> MetricsReply:
        """Query one replica's metrics-registry snapshot."""
        assert self._loop is not None, "connect() first"
        writer = self._writers.get(replica_id)
        if writer is None or writer.is_closing():
            raise ClientError(f"no connection to replica {replica_id}")
        nonce = next(self._nonces)
        waiter: asyncio.Future[MetricsReply] = self._loop.create_future()
        self._metrics_waiters[nonce] = waiter
        await write_frame(
            writer,
            encode_envelope(self.config.client_id, MetricsRequest(nonce=nonce)),
        )
        try:
            return await asyncio.wait_for(waiter, timeout)
        except asyncio.TimeoutError:
            self._metrics_waiters.pop(nonce, None)
            raise ClientError(f"metrics request to replica {replica_id} timed out")

    async def cluster_metrics(
        self,
        *,
        require_all: bool = False,
        concurrency: int = STATUS_PROBE_CONCURRENCY,
    ) -> list[MetricsReply]:
        """Query every connected replica's metrics snapshot.

        Mirrors :meth:`cluster_status`: dead replicas are skipped unless
        ``require_all`` is set, probes run with bounded concurrency.
        """
        semaphore = asyncio.Semaphore(max(1, concurrency))

        async def probe(replica_id: int) -> MetricsReply:
            async with semaphore:
                return await self.metrics(replica_id)

        results = await asyncio.gather(
            *(probe(replica_id) for replica_id in list(self._writers)),
            return_exceptions=True,
        )
        replies = [reply for reply in results if isinstance(reply, MetricsReply)]
        if require_all and len(replies) < len(results):
            errors = [r for r in results if not isinstance(r, MetricsReply)]
            raise ClientError(f"metrics probe failed: {errors[0]}")
        if not replies:
            raise ClientError("no replica answered a metrics probe")
        return replies

    async def shutdown_cluster(self, reason: str = "client request") -> None:
        """Ask every replica to stop serving (used by the supervisor)."""
        request = ShutdownRequest(reason)
        frame = encode_envelope(self.config.client_id, request)
        for writer in self._writers.values():
            if not writer.is_closing():
                await write_frame(writer, frame)

    @property
    def pending_count(self) -> int:
        """Submissions still waiting for a reply quorum."""
        return len(self._pending)
