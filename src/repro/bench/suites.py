"""The named benchmark suites behind ``repro bench``.

Each benchmark is a plain function returning a :class:`BenchResult`.  Micro
benchmarks auto-calibrate an inner loop until one timed repeat exceeds a
minimum wall-clock budget and report the *best* repeat (the standard
minimum-of-k estimator: the fastest observation has the least scheduler
noise).  The two end-to-end benchmarks (fig3-small simulation wall-clock and
the live localhost cluster) run once — they are long enough that a single
observation is meaningful, and the live one is nondeterministic anyway.

The functions deliberately measure through the same public entry points the
system uses (``Block.digest``, ``encode_envelope``/``decode_envelope``,
``LadonGlobalOrderer.on_deliver``, ``Simulator.run``, ``ExperimentEngine``),
so a regression anywhere on those paths is visible here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.ledger.blocks import Block, SystemState
from repro.ledger.transactions import Transaction, TransactionType
from repro.ledger.objects import ObjectOperation, ObjectType, OperationKind

#: Suite names accepted by ``repro bench --suite``.
SUITE_NAMES: tuple[str, ...] = ("quick", "full", "obs_overhead")

#: Minimum seconds one calibrated repeat of a micro benchmark must take.
_MIN_REPEAT_SECONDS = 0.1

#: Timed repeats per micro benchmark (best one is reported).
_REPEATS = 5


@dataclass(frozen=True)
class BenchResult:
    """One benchmark's outcome.

    ``value`` is in ``unit``; ``higher_is_better`` orients regression checks
    (ops/s benchmarks regress when they drop, wall-clock benchmarks regress
    when they grow).
    """

    name: str
    unit: str
    value: float
    higher_is_better: bool
    meta: dict[str, Any] = field(default_factory=dict)


def _best_seconds_per_op(fn: Callable[[], Any]) -> float:
    """Best-of-``_REPEATS`` seconds per call of ``fn`` (auto-calibrated)."""
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= _MIN_REPEAT_SECONDS:
            break
        # Grow geometrically towards the budget (x1.3 headroom for noise).
        scale = _MIN_REPEAT_SECONDS / max(elapsed, 1e-9)
        loops = max(loops + 1, int(loops * scale * 1.3))
    best = elapsed
    for _ in range(_REPEATS - 1):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best / loops


# -- fixtures -----------------------------------------------------------------


def _operations(index: int) -> tuple[ObjectOperation, ...]:
    return (
        ObjectOperation(
            key=f"acct-{index % 512:04d}",
            kind=OperationKind.DECREMENT,
            amount=1,
            object_type=ObjectType.OWNED,
        ),
        ObjectOperation(
            key=f"acct-{(index + 7) % 512:04d}",
            kind=OperationKind.INCREMENT,
            amount=1,
            object_type=ObjectType.OWNED,
        ),
    )


def _fresh_transactions(count: int, ops: Iterable[tuple[ObjectOperation, ...]]) -> list[Transaction]:
    ops = list(ops)
    return [
        Transaction(
            tx_id=f"tx-{i:06d}",
            operations=ops[i % len(ops)],
            tx_type=TransactionType.PAYMENT,
            client_id="bench-client",
        )
        for i in range(count)
    ]


def _fresh_block(txs: list[Transaction], instances: int = 4) -> Block:
    return Block.create(
        instance=0,
        sequence_number=5,
        transactions=txs,
        state=SystemState.initial(instances),
        proposer=0,
        rank=17,
    )


# -- micro benchmarks ---------------------------------------------------------


def bench_digest() -> BenchResult:
    """Content digests of fresh transactions and blocks, accessed twice.

    One unit of work mirrors what every replica does per proposed block: hash
    each transaction and the block itself, then read each digest again (PBFT
    computes the block digest at proposal and re-checks it at pre-prepare and
    commit).  Objects are constructed fresh inside the timed region so
    memoization cannot carry over between iterations — the second access per
    object is exactly the in-protocol reuse it speeds up.
    """
    op_pool = [_operations(i) for i in range(64)]

    def work() -> int:
        txs = _fresh_transactions(64, op_pool)
        block = _fresh_block(txs)
        total = 0
        for tx in txs:
            total += len(tx.digest)
            total += len(tx.digest)
        total += len(block.digest)
        total += len(block.digest)
        return total

    seconds = _best_seconds_per_op(work)
    digests = 2 * (64 + 1)
    return BenchResult(
        name="digest_block_64tx",
        unit="digests/s",
        value=digests / seconds,
        higher_is_better=True,
        meta={"transactions": 64, "accesses_per_object": 2},
    )


def _codec_messages() -> list[Any]:
    from repro.cluster.messages import ClientRequest
    from repro.sb.pbft.messages import Commit, PrePrepare, Prepare

    txs = _fresh_transactions(64, [_operations(i) for i in range(64)])
    block = _fresh_block(txs)
    digest = block.digest
    return [
        Prepare(instance=0, view=0, sender=1, sequence_number=5, digest=digest),
        Commit(instance=0, view=0, sender=1, sequence_number=5, digest=digest),
        ClientRequest(tx=txs[0], client_node=1000),
        PrePrepare(
            instance=0, view=0, sender=0, sequence_number=5, block=block, digest=digest
        ),
    ]


def bench_codec_roundtrip() -> BenchResult:
    """Wire-codec round trip of a representative consensus message mix.

    The mix is one of each hot frame: the tiny quadratic-traffic messages
    (prepare/commit), a client request, and a 64-transaction pre-prepare.
    """
    import repro.runtime.control  # noqa: F401  (registers control-plane types)
    from repro.runtime import codec

    messages = _codec_messages()
    total_bytes = sum(len(codec.encode_envelope(1, message)) for message in messages)

    def work() -> None:
        for message in messages:
            codec.decode_envelope(codec.encode_envelope(1, message))

    seconds = _best_seconds_per_op(work)
    return BenchResult(
        name="codec_roundtrip_mix",
        unit="roundtrips/s",
        value=len(messages) / seconds,
        higher_is_better=True,
        meta={"frame_bytes_total": total_bytes},
    )


def _straggler_blocks(
    num_instances: int, pending: int
) -> tuple[list[Block], list[Block]]:
    """Blocks for the straggler release scenario.

    Instances ``1..m-1`` deliver ``pending`` blocks that all wait (instance 0
    has delivered nothing, so the bar never moves), then instance 0 catches up
    with high-rank blocks that release the entire backlog — the paper's
    straggler shape, at the scale where release-path complexity dominates.
    """
    state = SystemState.initial(num_instances)
    waiting: list[Block] = []
    rank = 0
    per_instance = pending // (num_instances - 1)
    for sn in range(per_instance):
        for instance in range(1, num_instances):
            rank += 1
            waiting.append(
                Block.create(
                    instance=instance,
                    sequence_number=sn,
                    transactions=[],
                    state=state,
                    proposer=instance,
                    rank=rank,
                )
            )
    releasers = [
        Block.create(
            instance=0,
            sequence_number=sn,
            transactions=[],
            state=state,
            proposer=0,
            rank=rank + sn + 1,
        )
        for sn in range(4)
    ]
    return waiting, releasers


def bench_ladon_release() -> BenchResult:
    """Ladon global ordering under a 10k-block straggler backlog."""
    from repro.ordering.ladon import LadonGlobalOrderer

    num_instances = 16
    waiting, releasers = _straggler_blocks(num_instances, pending=10_000)
    delivered = len(waiting) + len(releasers)

    def deliver_all() -> int:
        orderer = LadonGlobalOrderer(num_instances)
        for block in waiting:
            orderer.on_deliver(block)
        for block in releasers:
            orderer.on_deliver(block)
        return orderer.ordered_count

    # The scenario is deterministic: the release count observed in one
    # untimed run pins the behaviour every timed run must reproduce (the
    # last round's own high ranks stay above the bar, so it is slightly
    # below the delivered count).
    expected = deliver_all()
    assert expected > len(waiting) * 0.99, expected

    def work() -> None:
        assert deliver_all() == expected

    seconds = _best_seconds_per_op(work)
    return BenchResult(
        name="ladon_release_10k",
        unit="blocks/s",
        value=delivered / seconds,
        higher_is_better=True,
        meta={
            "instances": num_instances,
            "pending_blocks": len(waiting),
            "released_blocks": expected,
        },
    )


def bench_dependency_release() -> BenchResult:
    """Dependency global ordering under the same 10k-block straggler backlog.

    Delivers the exact block sequence ``ladon_release_10k`` times, with
    :data:`~repro.ordering.base.UNKNOWN_CONFLICTS` metadata so every block is
    barred: the conflict graph holds the full 10k backlog and the final
    deliveries trigger the same mass release.  The blocks/s figure is
    directly comparable to ``ladon_release_10k`` — the gap is the price of
    the per-key heaps and blocked-predecessor checks at matched behaviour.
    """
    from repro.ordering.base import UNKNOWN_CONFLICTS
    from repro.ordering.dependency import DependencyGlobalOrderer

    num_instances = 16
    waiting, releasers = _straggler_blocks(num_instances, pending=10_000)
    delivered = len(waiting) + len(releasers)

    def deliver_all() -> int:
        orderer = DependencyGlobalOrderer(num_instances)
        for block in waiting:
            orderer.on_deliver(block, UNKNOWN_CONFLICTS)
        for block in releasers:
            orderer.on_deliver(block, UNKNOWN_CONFLICTS)
        return orderer.ordered_count

    expected = deliver_all()
    assert expected > len(waiting) * 0.99, expected

    def work() -> None:
        assert deliver_all() == expected

    seconds = _best_seconds_per_op(work)
    return BenchResult(
        name="dependency_release_10k",
        unit="blocks/s",
        value=delivered / seconds,
        higher_is_better=True,
        meta={
            "instances": num_instances,
            "pending_blocks": len(waiting),
            "released_blocks": expected,
        },
    )


def bench_sim_events() -> BenchResult:
    """Raw simulator event dispatch, including timer-churn cancellations."""
    from repro.sim.simulator import Simulator

    events = 50_000

    def work() -> None:
        sim = Simulator()
        sink: list[float] = []
        append = sink.append
        handles = []
        for i in range(events):
            handle = sim.schedule(i * 1e-5, lambda: append(1.0))
            if i % 4 == 0:
                handles.append(handle)
        # A quarter of the events are cancelled before firing — the
        # view-change-timer churn shape the lazy-deletion heap compaction
        # exists for.
        for handle in handles:
            handle.cancel()
        sim.run()
        assert sim.processed_events == events - len(handles)

    seconds = _best_seconds_per_op(work)
    return BenchResult(
        name="sim_event_throughput",
        unit="events/s",
        value=events / seconds,
        higher_is_better=True,
        meta={"events": events, "cancelled_fraction": 0.25},
    )


# -- end-to-end benchmarks ----------------------------------------------------


def bench_fig3_small() -> BenchResult:
    """Wall-clock of one uncached fig3-shaped simulation cell.

    The cell is the ``repro run`` default (16 replicas, WAN, 40 simulated
    seconds) — the same shape every fig3 grid point simulates.  Best of three
    runs, each on a fresh engine with caching disabled.
    """
    from repro.experiments.engine import ExperimentEngine, ScenarioSpec

    spec = ScenarioSpec(
        protocol="orthrus",
        num_replicas=16,
        environment="wan",
        duration=40.0,
        warmup=8.0,
        samples_per_block=6,
        seed=1,
    )
    best = float("inf")
    throughput = 0.0
    for _ in range(3):
        engine = ExperimentEngine(cache_dir=None, jobs=1)
        start = time.perf_counter()
        result = engine.run_one(spec)
        best = min(best, time.perf_counter() - start)
        throughput = result.metrics.throughput_tps
    return BenchResult(
        name="fig3_small_wallclock",
        unit="seconds",
        value=best,
        higher_is_better=False,
        meta={
            "replicas": 16,
            "simulated_seconds": 40.0,
            "throughput_tps": round(throughput, 1),
        },
    )


def bench_live_smoke(transactions: int = 600) -> BenchResult:
    """Committed tx/s of a real 4-replica / 2-instance localhost cluster."""
    import asyncio

    from repro.runtime.client import ClientConfig
    from repro.runtime.cluster import ClusterSpec, LocalCluster
    from repro.runtime.loadgen import LoadGenConfig, run_loadgen
    from repro.workload.config import WorkloadConfig

    spec = ClusterSpec(
        num_replicas=4,
        num_instances=2,
        protocol="orthrus",
        batch_size=64,
        batch_interval=0.02,
        workload=WorkloadConfig(num_accounts=1024, seed=42),
    )
    load = LoadGenConfig(
        transactions=transactions,
        mode="closed",
        concurrency=32,
        workload=WorkloadConfig(
            num_accounts=1024, seed=42, payment_fraction=1.0
        ),
        client=ClientConfig(client_id=1000, timeout=10.0, retries=3),
    )
    cluster = LocalCluster(spec)
    cluster.start()
    try:
        report = asyncio.run(run_loadgen(list(cluster.endpoints), load))
    finally:
        cluster.stop()
    if report.failed or not report.digests_agree:
        raise RuntimeError(
            f"live smoke failed: {report.failed} failures, "
            f"digests_agree={report.digests_agree}"
        )
    return BenchResult(
        name="live_smoke_tps",
        unit="tx/s",
        value=report.metrics.throughput_tps,
        higher_is_better=True,
        meta={
            "replicas": 4,
            "instances": 2,
            "transactions": transactions,
            "digests_agree": report.digests_agree,
        },
    )


def bench_live_pipeline(transactions: int = 4000) -> BenchResult:
    """Committed tx/s with the scale path on: UDS + super-frames + routing.

    Same replica count as :func:`bench_live_smoke` but configured the way a
    throughput-focused deployment would be — Unix domain sockets, leader-
    routed submission (each transaction goes to the ``f + 1`` replicas that
    will answer, not all of them), deep pipelining — so the benchmark tracks
    the batched transport end to end rather than any single layer.
    """
    import asyncio

    from repro.runtime.client import ClientConfig
    from repro.runtime.cluster import ClusterSpec, LocalCluster
    from repro.runtime.loadgen import LoadGenConfig, run_loadgen
    from repro.workload.config import WorkloadConfig

    spec = ClusterSpec(
        num_replicas=4,
        num_instances=2,
        protocol="orthrus",
        batch_size=256,
        batch_interval=0.01,
        transport="uds",
        workload=WorkloadConfig(num_accounts=256, seed=42),
    )
    load = LoadGenConfig(
        transactions=transactions,
        mode="closed",
        concurrency=512,
        workload=WorkloadConfig(num_accounts=256, seed=42, payment_fraction=1.0),
        client=ClientConfig(
            client_id=1000, timeout=15.0, retries=3, route_instances=2
        ),
    )
    cluster = LocalCluster(spec)
    cluster.start()
    try:
        report = asyncio.run(run_loadgen(list(cluster.endpoints), load))
    finally:
        cluster.stop()
    if report.failed or not report.digests_agree:
        raise RuntimeError(
            f"live pipeline failed: {report.failed} failures, "
            f"digests_agree={report.digests_agree}"
        )
    return BenchResult(
        name="live_pipeline_tps",
        unit="tx/s",
        value=report.metrics.throughput_tps,
        higher_is_better=True,
        meta={
            "replicas": 4,
            "instances": 2,
            "transport": "uds",
            "routed": True,
            "transactions": transactions,
            "concurrency": 512,
            "digests_agree": report.digests_agree,
        },
    )


def bench_scale_100replica(transactions: int = 64) -> BenchResult:
    """Wall-clock to start, load and stop a 100-replica localhost cluster.

    The value is the full lifecycle in seconds: spawn 100 replica processes
    over UDS, commit a bounded transaction load with ``f + 1`` matching
    digests, shut down cleanly.  Consensus traffic is quadratic in ``n``, so
    this is the benchmark that catches any O(n²) cliff in the runtime layers
    (port reservation, connection mesh, supervision, client fan-out).
    """
    import asyncio

    from repro.runtime.client import ClientConfig
    from repro.runtime.cluster import ClusterSpec, LocalCluster
    from repro.runtime.loadgen import LoadGenConfig, run_loadgen
    from repro.workload.config import WorkloadConfig

    replicas = 100
    spec = ClusterSpec(
        num_replicas=replicas,
        num_instances=2,
        protocol="orthrus",
        batch_size=64,
        batch_interval=0.25,
        view_change_timeout=60.0,
        transport="uds",
        workload=WorkloadConfig(num_accounts=256, seed=42),
    )
    # Submit the whole bounded load at once: with batch_size == transactions
    # each instance cuts whole blocks instead of dribbling n² vote rounds.
    load = LoadGenConfig(
        transactions=transactions,
        mode="closed",
        concurrency=64,
        workload=WorkloadConfig(num_accounts=256, seed=42, payment_fraction=1.0),
        client=ClientConfig(client_id=1000, timeout=60.0, retries=2),
    )
    start = time.perf_counter()
    cluster = LocalCluster(spec)
    # 100 interpreters cold-start serially on a small host; the ready probe
    # itself is parallel, so the timeout covers the slowest straggler.
    cluster.start(ready_timeout=100.0)
    try:
        report = asyncio.run(run_loadgen(list(cluster.endpoints), load))
    finally:
        cluster.stop()
    elapsed = time.perf_counter() - start
    if report.failed or not report.digests_agree:
        raise RuntimeError(
            f"100-replica scale run failed: {report.failed} failures, "
            f"digests_agree={report.digests_agree}"
        )
    return BenchResult(
        name="scale_100replica",
        unit="seconds",
        value=elapsed,
        higher_is_better=False,
        meta={
            "replicas": replicas,
            "instances": 2,
            "transport": "uds",
            "transactions": transactions,
            "throughput_tps": round(report.metrics.throughput_tps, 1),
            "digests_agree": report.digests_agree,
        },
    )


# -- observability overhead ---------------------------------------------------


def bench_obs_instruments() -> BenchResult:
    """Hot-path cost of one counter increment plus one histogram observe.

    These are the two instrument calls that sit on the live transport and
    consensus paths (``frames_received.inc()``, ``bar_wait.observe()``); the
    benchmark reports how many such instrument operations a core sustains,
    which bounds the per-transaction bookkeeping cost.
    """
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    counter = registry.counter("bench.counter")
    histogram = registry.histogram("bench.histogram")
    batch = 1_000

    def work() -> None:
        for _ in range(batch):
            counter.inc()
            histogram.observe(1.5e-4)

    seconds = _best_seconds_per_op(work)
    return BenchResult(
        name="obs_instrument_ops",
        unit="ops/s",
        value=2 * batch / seconds,
        higher_is_better=True,
        meta={"instruments": ["counter.inc", "histogram.observe"]},
    )


def bench_obs_trace_emit() -> BenchResult:
    """Per-transaction cost of the sampling gate plus sampled emission.

    Mirrors the replica hot path at a 1% sample rate: every transaction pays
    ``sampled()`` (a crc32 and a compare) and one in a hundred additionally
    pays the buffered JSONL ``emit``.  The value is transactions per second
    through that gate.
    """
    import tempfile
    from pathlib import Path

    from repro.obs.trace import TraceWriter

    tx_ids = [f"client-1000-{n}" for n in range(2048)]
    with tempfile.TemporaryDirectory(prefix="repro-bench-obs-") as tmp:
        writer = TraceWriter(
            Path(tmp) / "trace.jsonl", node=0, sample_rate=0.01
        )
        sampled = sum(writer.sampled(tx_id) for tx_id in tx_ids)

        def work() -> None:
            for tx_id in tx_ids:
                if writer.sampled(tx_id):
                    writer.emit(tx_id, "received", 1.0)

        seconds = _best_seconds_per_op(work)
        writer.close()
    return BenchResult(
        name="obs_trace_gate_tx",
        unit="tx/s",
        value=len(tx_ids) / seconds,
        higher_is_better=True,
        meta={"sample_rate": 0.01, "sampled_of_2048": sampled},
    )


def bench_obs_live_overhead(transactions: int = 600) -> BenchResult:
    """A/B live-cluster overhead of the registry + sampled tracing.

    Runs the :func:`bench_live_smoke` shape twice — once with observability
    disabled (``--no-obs``: NULL registry, no tracer, no snapshots) and once
    with the registry, 1 s metrics snapshots and 1% tracing on — and reports
    the committed-throughput cost as a percentage.  The acceptance budget is
    5%; both absolute throughputs land in ``meta`` so a regression is
    attributable.
    """
    import asyncio
    import tempfile
    from pathlib import Path

    from repro.runtime.client import ClientConfig
    from repro.runtime.cluster import ClusterSpec, LocalCluster
    from repro.runtime.loadgen import LoadGenConfig, run_loadgen
    from repro.workload.config import WorkloadConfig

    def run_once(*, obs_enabled: bool, run_dir: str | None, trace_sample: float) -> float:
        spec = ClusterSpec(
            num_replicas=4,
            num_instances=2,
            protocol="orthrus",
            batch_size=64,
            batch_interval=0.02,
            workload=WorkloadConfig(num_accounts=1024, seed=42),
            obs_enabled=obs_enabled,
            run_dir=run_dir,
            trace_sample=trace_sample,
        )
        load = LoadGenConfig(
            transactions=transactions,
            mode="closed",
            concurrency=32,
            workload=WorkloadConfig(
                num_accounts=1024, seed=42, payment_fraction=1.0
            ),
            client=ClientConfig(client_id=1000, timeout=10.0, retries=3),
        )
        cluster = LocalCluster(spec)
        cluster.start()
        try:
            report = asyncio.run(run_loadgen(list(cluster.endpoints), load))
        finally:
            cluster.stop()
        if report.failed or not report.digests_agree:
            raise RuntimeError(
                f"obs overhead run (obs={obs_enabled}) failed: "
                f"{report.failed} failures, digests_agree={report.digests_agree}"
            )
        return report.metrics.throughput_tps

    tps_off = run_once(obs_enabled=False, run_dir=None, trace_sample=0.0)
    with tempfile.TemporaryDirectory(prefix="repro-bench-obs-") as tmp:
        tps_on = run_once(
            obs_enabled=True,
            run_dir=str(Path(tmp) / "run"),
            trace_sample=0.01,
        )
    overhead_pct = max(0.0, (tps_off - tps_on) / tps_off * 100.0)
    return BenchResult(
        name="obs_live_overhead",
        unit="percent",
        value=overhead_pct,
        higher_is_better=False,
        meta={
            "budget_percent": 5.0,
            "tps_obs_off": round(tps_off, 1),
            "tps_obs_on": round(tps_on, 1),
            "trace_sample": 0.01,
            "transactions": transactions,
        },
    )


# -- suites -------------------------------------------------------------------

#: The fast, deterministic-ish suite CI runs on every push.
_QUICK: tuple[Callable[[], BenchResult], ...] = (
    bench_digest,
    bench_codec_roundtrip,
    bench_ladon_release,
    bench_dependency_release,
    bench_sim_events,
)

#: Everything, including the end-to-end simulation and live-cluster runs.
_FULL: tuple[Callable[[], BenchResult], ...] = _QUICK + (
    bench_fig3_small,
    bench_live_smoke,
    bench_live_pipeline,
    bench_scale_100replica,
)

#: Observability cost: instrument microbenches plus the live A/B overhead run.
_OBS_OVERHEAD: tuple[Callable[[], BenchResult], ...] = (
    bench_obs_instruments,
    bench_obs_trace_emit,
    bench_obs_live_overhead,
)


def run_suite(
    suite: str, *, progress: Callable[[str], None] | None = None
) -> list[BenchResult]:
    """Run a named suite and return its results in execution order."""
    if suite == "quick":
        benchmarks = _QUICK
    elif suite == "full":
        benchmarks = _FULL
    elif suite == "obs_overhead":
        benchmarks = _OBS_OVERHEAD
    else:
        raise ValueError(f"unknown benchmark suite {suite!r}")
    results: list[BenchResult] = []
    for benchmark in benchmarks:
        if progress is not None:
            progress(benchmark.__name__)
        results.append(benchmark())
    return results
