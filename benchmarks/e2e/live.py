"""One repeat of a live workload: a four-replica cluster hosted in this process.

Every :class:`ReplicaServer` and the one :class:`OrthrusClient` share the
stdlib asyncio loop of this process over Unix sockets: no threads, no worker
pool, no uvloop.  The numbers then measure the program rather than the
scheduler of a 2-core host, and the wrappers in :mod:`spans` see every layer
of every replica.  What this cannot show is any gain from running replicas or
instances in parallel.

The drivers keep a per-operation log and every metric is recomputed from it
after the run; nothing is sampled in flight except the host-speed kernel.
"""

from __future__ import annotations

import asyncio
import logging
import random
import resource
import time
from dataclasses import dataclass, field

import hostspeed
from repro.ledger.transactions import Transaction, reset_transaction_counter
from repro.runtime.client import ClientConfig, ClientError, OrthrusClient
from repro.runtime.config import ReplicaRuntimeConfig
from repro.runtime.durability import ReplicaDurability
from repro.runtime.server import ReplicaServer
from repro.workload.config import WorkloadConfig
from repro.workload.generator import EthereumStyleWorkload
from spans import SpanRecorder, layer_metrics, percentile, resident_kb
from workloads import (
    BATCH_INTERVAL,
    BATCH_SIZE,
    CLOSED_LOOP_CLIENTS,
    INITIAL_BALANCE,
    NUM_ACCOUNTS,
    NUM_REPLICAS,
    Workload,
)

#: Least seconds between host-speed samples taken on the measured loop.
CALIBRATION_INTERVAL = 0.02
#: Open loop: seconds of traffic after the window, so it ends in steady state.
COOLDOWN_SECONDS = 0.5
SETTLE_TIMEOUT = 15.0
CLIENT_TIMEOUT = 10.0


@dataclass
class Operation:
    """One submitted transaction in the per-operation log."""

    payment: bool
    #: Value leaving owned accounts for good (contract debits; payments move it).
    burned: int
    #: Closed loop: when it was sent.  Open loop: when it was *due*.
    due: float
    finished: float = 0.0
    committed: bool = False


@dataclass
class Clocks:
    """Loop time, CPU time and host-speed samples at the window's two edges."""

    #: Cluster serving and client connected: the end of set-up
    #: (``perf_counter``, like the process start it is measured from).
    ready: float = 0.0
    cpu_ready: float = 0.0
    ready_calibration: list[float] = field(default_factory=list)
    opened: float = 0.0
    closed: float = 0.0
    cpu_opened: float = 0.0
    cpu_closed: float = 0.0
    rss_opened_kb: int = 0
    rss_closed_kb: int = 0
    #: ``(loop time, kernel ms)``, sampled on the loop while it runs.
    calibration: list[tuple[float, float]] = field(default_factory=list)
    lag_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    wal_bytes_opened: int = 0
    wal_bytes_closed: int = 0
    peak_rss_mb: float = 0.0


def replica_configs(workload: Workload, seed: int) -> list[ReplicaRuntimeConfig]:
    """Configurations of the four replicas.  Endpoints and run directories are
    relative paths: the child runs inside its own scratch directory, which
    keeps socket paths short wherever the checkout lives."""
    genesis = WorkloadConfig(
        num_accounts=NUM_ACCOUNTS,
        seed=seed,
        payment_fraction=workload.payment_fraction,
        initial_balance=INITIAL_BALANCE,
    )
    peers = tuple((f"unix:r{index}.sock", 0) for index in range(NUM_REPLICAS))
    configs = []
    for index in range(NUM_REPLICAS):
        observed = workload.durable_and_observed
        delayed = workload.straggler is not None and workload.straggler[0] == index
        configs.append(
            ReplicaRuntimeConfig(
                replica_id=index,
                peers=peers,
                protocol="orthrus",
                num_instances=workload.instances,
                batch_size=BATCH_SIZE,
                batch_interval=BATCH_INTERVAL,
                workload=genesis,
                send_delay=workload.straggler[1] if delayed else 0.0,
                wan=workload.wan,
                obs_enabled=observed,
                run_dir=f"run{index}" if observed else None,
                trace_file=f"run{index}/trace.jsonl" if observed else None,
                trace_sample=0.1,
            )
        )
    return configs


class Repeat:
    """Cluster, client, drivers and checks of one repeat."""

    def __init__(
        self, workload: Workload, seed: int, window_seconds: float,
        recorder: SpanRecorder | None,
    ) -> None:
        self.workload = workload
        self.window_seconds = window_seconds
        self.recorder = recorder
        self.configs = replica_configs(workload, seed)
        self.generator = EthereumStyleWorkload(self.configs[0].workload)
        self.servers: list[ReplicaServer] = []
        self.client: OrthrusClient | None = None
        self.operations: list[Operation] = []
        self.clocks = Clocks()
        self.settled = False
        self._calibrate_after = 0.0

    # -- the measured window ---------------------------------------------------

    def _open_window(self) -> None:
        clocks = self.clocks
        clocks.wal_bytes_opened = self._wal_bytes()
        clocks.rss_opened_kb = resident_kb()
        if self.recorder is not None:
            self.recorder.recording = True
        clocks.opened = asyncio.get_running_loop().time()
        clocks.cpu_opened = time.process_time()

    def _close_window(self) -> None:
        clocks = self.clocks
        clocks.cpu_closed = time.process_time()
        clocks.closed = asyncio.get_running_loop().time()
        if self.recorder is not None:
            self.recorder.recording = False
        clocks.wal_bytes_closed = self._wal_bytes()
        clocks.rss_closed_kb = resident_kb()
        clocks.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def _wal_bytes(self) -> int:
        return sum(
            server.durability.wal_bytes
            for server in self.servers
            if server.durability is not None
        )

    def _submit(self, due: float) -> tuple[Operation, asyncio.Future]:
        assert self.client is not None
        tx: Transaction = self.generator.next_transaction()
        operation = Operation(
            payment=tx.is_payment,
            burned=0 if tx.is_payment else tx.total_debit(),
            due=due,
        )
        self.operations.append(operation)
        return operation, self.client.submit_nowait(tx)

    async def _closed_loop(self) -> None:
        """Each logical client sends its next transaction when the previous
        one has its reply quorum, from warm-up through the window's end."""
        loop = asyncio.get_running_loop()
        running = True

        async def logical_client() -> None:
            while running:
                operation, future = self._submit(loop.time())
                try:
                    operation.committed = (await future).committed
                except ClientError:
                    pass
                operation.finished = loop.time()
                self._calibrate(operation.finished)

        clients = [
            loop.create_task(logical_client()) for _ in range(CLOSED_LOOP_CLIENTS)
        ]
        await asyncio.sleep(self.workload.warmup_seconds)
        self._open_window()
        await asyncio.sleep(self.window_seconds)
        self._close_window()
        running = False
        await asyncio.gather(*clients)

    async def _open_loop(self) -> None:
        """Transactions fall due whatever the cluster does — independent
        users, so seeded Poisson arrivals — and each is timed from its due
        instant: a stalled generator charges its lateness to the
        transactions it delayed."""
        loop = asyncio.get_running_loop()
        rate = self.workload.rate
        arrivals = random.Random(self.generator.config.seed)
        warmup = round(self.workload.warmup_seconds * rate)
        window = round(self.window_seconds * rate)
        cooldown = round(COOLDOWN_SECONDS * rate)
        pending: list[asyncio.Future] = []

        def finish(operation: Operation, future: asyncio.Future) -> None:
            operation.finished = loop.time()
            if future.exception() is None:
                operation.committed = future.result().committed
            self._calibrate(operation.finished)

        due = loop.time()
        for index in range(warmup + window + cooldown):
            due += arrivals.expovariate(rate)
            if due > loop.time():
                await asyncio.sleep(due - loop.time())
            if index == warmup:
                self._open_window()
            elif index == warmup + window:
                self._close_window()
            if warmup <= index < warmup + window:
                self.clocks.late_ms.append((loop.time() - due) * 1e3)
            operation, future = self._submit(due)
            future.add_done_callback(lambda f, op=operation: finish(op, f))
            pending.append(future)
        await asyncio.gather(*pending, return_exceptions=True)

    # -- instruments on the loop -----------------------------------------------

    def _calibrate(self, now: float) -> None:
        """Sample the host's speed, at most every ``CALIBRATION_INTERVAL``.

        Called where a transaction completes, so the kernel always runs on a
        loop that was just busy with the program.  Sampled from a sleeping
        task instead, an open loop's kernel ran on a CPU that had idled for
        anything from 0 to 20 ms: its samples spread from 0.25 to 0.6 ms
        within one window and their median moved 30 % between runs.
        """
        if now >= self._calibrate_after:
            self._calibrate_after = now + CALIBRATION_INTERVAL
            self.clocks.calibration.append((now, hostspeed.sample_ms()))

    async def _sample_lag(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            asked = loop.time()
            await asyncio.sleep(0.01)
            if self.recorder.recording:
                self.clocks.lag_ms.append((loop.time() - asked - 0.01) * 1e3)

    # -- lifecycle ----------------------------------------------------------------

    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        instruments = (
            [loop.create_task(self._sample_lag())] if self.recorder is not None else []
        )
        serving = []
        try:
            for config in self.configs:
                server = ReplicaServer(config)
                await server.start()
                self.servers.append(server)
                serving.append(loop.create_task(server.serve_forever()))
                # Set-up has no traffic to sample under, so sample along it.
                self.clocks.ready_calibration += hostspeed.samples_ms(5)
            self.client = OrthrusClient(
                list(self.configs[0].peers),
                ClientConfig(
                    timeout=CLIENT_TIMEOUT, route_instances=self.workload.instances
                ),
            )
            await self.client.connect()
            self.clocks.ready, self.clocks.cpu_ready = time.perf_counter(), time.process_time()
            self.clocks.ready_calibration += hostspeed.samples_ms(5)
            if self.workload.loop == "closed":
                await self._closed_loop()
            else:
                await self._open_loop()
            self.settled = await self._settle()
        finally:
            for task in instruments:
                task.cancel()
            if self.client is not None:
                await self.client.close()
            for server in self.servers:
                server.stop()
            await asyncio.gather(*serving, *instruments, return_exceptions=True)

    async def _settle(self) -> bool:
        """Wait, bounded, until all replicas report one digest and frontier."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + SETTLE_TIMEOUT
        while True:
            statuses = [server.status() for server in self.servers]
            if (
                len({status.state_digest for status in statuses}) == 1
                and len({status.delivered_frontier for status in statuses}) == 1
            ):
                return True
            if loop.time() > deadline:
                return False
            await asyncio.sleep(0.05)

    # -- output checks ---------------------------------------------------------------

    def check(self) -> dict[str, bool]:
        """Output checks, each ``True`` when it holds."""
        store = self.servers[0].replica.core.store
        burned = sum(op.burned for op in self.operations if op.committed)
        checks = {
            "replicas_agree": self.settled,
            "every_operation_finished": all(op.finished for op in self.operations),
            # Payments move value between owned accounts and a contract call
            # moves its callers' debits out of them, so the owned total is
            # known exactly from the operation log.
            "owned_value_accounted": store.total_owned_value()
            == NUM_ACCOUNTS * INITIAL_BALANCE - burned,
        }
        if self.workload.durable_and_observed:
            checks["recovers_from_run_dir"] = self._recovered_digest() == (
                store.state_digest()
            )
        return checks

    def _recovered_digest(self) -> str:
        """Replica 0's state rebuilt from its WAL alone, after shutdown."""
        config = self.configs[0]
        durability = ReplicaDurability(config.run_dir)
        try:
            core, _ = durability.recover(config.build_core(), config.build_core)
        finally:
            durability.close()
        return core.store.state_digest()


def run_repeat(
    workload: Workload, seed: int, window_seconds: float, trace: bool,
    process_started: float, spans_path: str,
) -> dict:
    """Run one repeat in the current (scratch) directory; the raw result."""
    logging.disable(logging.WARNING)
    reset_transaction_counter()
    recorder = SpanRecorder.installed_if(trace)
    repeat = Repeat(workload, seed, window_seconds, recorder)
    asyncio.run(repeat.run())
    clocks = repeat.clocks
    checks = repeat.check()

    window = [
        op for op in repeat.operations if clocks.opened <= op.due < clocks.closed
    ]
    done = [
        op
        for op in repeat.operations
        if op.committed and clocks.opened <= op.finished < clocks.closed
    ]
    result = {
        "checks": checks,
        "attempted": len(window),
        "failed": sum(1 for op in window if not op.committed),
        "committed": len(done),
        "wall_s": clocks.closed - clocks.opened,
        "cpu_s": clocks.cpu_closed - clocks.cpu_opened,
        "setup_wall_s": clocks.ready - process_started,
        "setup_cpu_s": clocks.cpu_ready,
        "setup_calibration_ms": clocks.ready_calibration,
        "calibration_ms": [
            ms for at, ms in clocks.calibration if clocks.opened <= at < clocks.closed
        ],
        "payment_ms": [
            (op.finished - op.due) * 1e3 for op in window if op.payment and op.committed
        ],
        "contract_ms": [
            (op.finished - op.due) * 1e3
            for op in window
            if not op.payment and op.committed
        ],
        "peak_rss_mb": clocks.peak_rss_mb,
        "rss_growth_kb": clocks.rss_closed_kb - clocks.rss_opened_kb,
    }
    if recorder is not None:
        committed = max(len(done), 1)
        layers = layer_metrics(
            recorder, committed=len(done), window_cpu_s=result["cpu_s"]
        )
        layers["wal.bytes_per_tx"] = (
            clocks.wal_bytes_closed - clocks.wal_bytes_opened
        ) / committed
        layers["loop.lag_ms_p99"] = percentile(clocks.lag_ms, 0.99)
        layers["loadgen.late_ms_p99"] = percentile(clocks.late_ms, 0.99)
        result["layers"] = layers
        recorder.dump(spans_path)
    return result
