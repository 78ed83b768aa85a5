"""Command-line interface for running experiments and regenerating figures.

Examples::

    python -m repro.cli run --protocol orthrus --replicas 16 --environment wan
    python -m repro.cli compare --replicas 16 --straggler --jobs 6
    python -m repro.cli figure fig3 --scale smoke --jobs 4 --cache-dir .cache
    python -m repro.cli grid fig5 --scale ci --jobs 8 --cache-dir .cache
    python -m repro.cli grid --list
    python -m repro.cli workload --transactions 1000 --payment-fraction 0.8

Live cluster (real asyncio TCP processes, not the simulator)::

    python -m repro.cli cluster --replicas 4 --instances 2 --duration 10
    python -m repro.cli serve --config '{"replica_id": 0, "peers": ["127.0.0.1:7000", ...]}'
    python -m repro.cli loadgen --peers 127.0.0.1:7000,... --transactions 1000

Observability (docs/observability.md)::

    python -m repro.cli cluster --trace-sample 1.0 --duration 30
    python -m repro.cli top --peers 127.0.0.1:7000,... --iterations 3
    python -m repro.cli trace <tx-id-prefix> --dir /tmp/repro-run-...

Live fault injection (the paper's degradation modes on real sockets)::

    python -m repro.cli chaos --crash 0:2 --view-change-timeout 2
    python -m repro.cli chaos --straggle 1:10
    python -m repro.cli chaos --byzantine 1
    python -m repro.cli cluster --fault-plan '{"crashes": {"0": 5}}'
    python -m repro.cli run --backend live --replicas 4 --straggler

Performance benchmarks (the BENCH_<n>.json trajectory, docs/performance.md)::

    python -m repro.cli bench --suite quick
    python -m repro.cli bench --suite full --output BENCH_5.json
    python -m repro.cli bench --suite quick --check BENCH_5.json

All experiment commands accept ``--jobs N`` (parallel execution across a
process pool; results are identical to serial runs) and ``--cache-dir PATH``
(completed cells are stored as JSON keyed by spec hash, so re-runs and
overlapping grids are free).
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
from dataclasses import replace
from typing import Sequence

from repro.analysis.comparison import (
    compare_latency,
    export_csv,
    export_results_csv,
    results_by_protocol,
    summarize,
    throughput_sparkline,
)
from repro.core.config import DEFAULT_EPOCH_LENGTH
from repro.errors import ConfigurationError, ReproError
from repro.experiments.engine import ExperimentEngine, FaultSpec, ScenarioSpec
from repro.experiments.registry import expand_grid, grid, grid_names
from repro.experiments.reporting import (
    breakdown_table,
    engine_summary,
    fault_timeline_table,
    grid_table,
    proportion_table,
    scalability_table,
    undetectable_table,
)
from repro.experiments.scale import SCALE_NAMES
from repro.experiments.scenarios import (
    detectable_fault_timelines,
    latency_breakdown,
    payment_proportion_sweep,
    scalability_sweep,
    undetectable_fault_sweep,
)
from repro.protocols.registry import PROTOCOL_NAMES, available_protocols
from repro.workload.config import DEFAULT_ZIPF_EXPONENT, WorkloadConfig
from repro.workload.generator import EthereumStyleWorkload

#: Default workload seed of ad-hoc ``run``/``compare`` invocations (the
#: figure grids derive their own seeds; see ``ScenarioSpec``).
_CLI_WORKLOAD_SEED = 42


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _add_cluster_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags shared by ``cluster`` and ``chaos``: one :class:`ClusterSpec`."""
    parser.add_argument("--replicas", type=_positive_int, default=4)
    parser.add_argument("--instances", type=int, default=None)
    parser.add_argument("--protocol", default="orthrus", choices=available_protocols())
    parser.add_argument("--base-port", type=int, default=None)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--batch-interval", type=float, default=0.05)
    parser.add_argument("--view-change-timeout", type=float, default=10.0)
    parser.add_argument("--accounts", type=int, default=1024)
    parser.add_argument("--workload-seed", type=int, default=42)
    parser.add_argument(
        "--zipf-s",
        type=float,
        default=DEFAULT_ZIPF_EXPONENT,
        help="Zipf skew of the genesis/workload account universe",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        help=(
            "JSON fault plan or @file (chaos: in place of its fault flags): "
            '{"stragglers": {"1": 10}, "crashes": {"0": 5}, '
            '"restarts": {"0": 15}, "churn": [[5, 0, 3]], '
            '"partitions": [[5, [[3]], 3]], "wan": "wan", '
            '"undetectable_faults": 1}'
        ),
    )
    parser.add_argument(
        "--wan",
        default=None,
        metavar="MODEL|MATRIX",
        help=(
            "WAN emulation for every replica — 'wan'/'lan', a JSON square "
            "delay matrix in seconds, or @file.json"
        ),
    )
    parser.add_argument(
        "--durability",
        action="store_true",
        help=(
            "give every replica a WAL + snapshots under its run directory so "
            "crashed replicas rejoin at full strength after a restart"
        ),
    )
    parser.add_argument(
        "--epoch-length",
        type=_positive_int,
        default=DEFAULT_EPOCH_LENGTH,
        metavar="BLOCKS",
        help=f"blocks per epoch (checkpoint/snapshot cadence; default: {DEFAULT_EPOCH_LENGTH})",
    )
    parser.add_argument(
        "--snapshot-every-epochs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="cut a snapshot at most every N completed epochs (default: 1)",
    )
    parser.add_argument(
        "--transport",
        default="tcp",
        choices=["tcp", "uds"],
        help="peer sockets: tcp (default) or uds (Unix domain, localhost only)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="crypto/codec worker processes per replica (default: 0, inline)",
    )
    parser.add_argument(
        "--run-dir",
        default=None,
        metavar="PATH",
        help=(
            "directory for run artifacts (replica-<i>/trace.jsonl, "
            "metrics.jsonl, stderr.log); default: a repro-run-* temp dir "
            "when tracing is on"
        ),
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=0.0,
        metavar="RATE",
        help=(
            "fraction of transactions traced across every process "
            "(deterministic by tx id; 0 disables tracing, 1.0 traces all)"
        ),
    )
    parser.add_argument(
        "--metrics-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="seconds between per-replica metrics snapshots (default: 1.0)",
    )
    parser.add_argument(
        "--no-obs",
        action="store_true",
        help="disable the metrics registry, tracing and snapshots entirely",
    )
    parser.add_argument(
        "--log-level",
        default="info",
        choices=["debug", "info", "warning", "error"],
        help="replica stderr logging threshold (default: info)",
    )
    parser.add_argument(
        "--log-format",
        default="text",
        choices=["text", "json"],
        help="replica stderr logs: text (default) or json (one object per line)",
    )


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for grid cells (default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for cached per-spec results (default: no cache)",
    )


def _build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Orthrus reproduction: run experiments and regenerate figures.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one protocol once")
    run_parser.add_argument("--protocol", default="orthrus", choices=available_protocols() + ["orthrus-blocking"])
    run_parser.add_argument(
        "--backend",
        default="sim",
        choices=["sim", "live"],
        help="sim: deterministic simulator; live: real asyncio cluster on localhost",
    )
    run_parser.add_argument("--replicas", type=int, default=16)
    run_parser.add_argument("--environment", default="wan", choices=["wan", "lan"])
    run_parser.add_argument("--duration", type=float, default=40.0)
    run_parser.add_argument("--warmup", type=float, default=8.0)
    run_parser.add_argument("--straggler", action="store_true")
    run_parser.add_argument("--payment-fraction", type=float, default=0.46)
    run_parser.add_argument(
        "--zipf-s",
        type=float,
        default=None,
        help="Zipf skew of account activity (default: 0.8; higher = hotter keys)",
    )
    run_parser.add_argument("--seed", type=int, default=1)
    run_parser.add_argument("--csv", action="store_true", help="emit CSV instead of text")
    _add_engine_arguments(run_parser)

    compare_parser = subparsers.add_parser("compare", help="run every protocol once and compare")
    compare_parser.add_argument("--replicas", type=int, default=16)
    compare_parser.add_argument("--environment", default="wan", choices=["wan", "lan"])
    compare_parser.add_argument("--duration", type=float, default=40.0)
    compare_parser.add_argument("--warmup", type=float, default=8.0)
    compare_parser.add_argument("--straggler", action="store_true")
    compare_parser.add_argument("--seed", type=int, default=1)
    _add_engine_arguments(compare_parser)

    figure_parser = subparsers.add_parser("figure", help="regenerate a paper figure")
    figure_parser.add_argument(
        "name",
        choices=["fig3", "fig4", "fig5", "fig6", "fig7", "fig8"],
        help="paper figure to regenerate",
    )
    figure_parser.add_argument("--scale", default="smoke", choices=list(SCALE_NAMES))
    _add_engine_arguments(figure_parser)

    grid_parser = subparsers.add_parser(
        "grid", help="expand and run a named scenario grid"
    )
    grid_parser.add_argument(
        "name",
        nargs="?",
        default=None,
        help="registered grid name (see --list)",
    )
    grid_parser.add_argument("--scale", default="smoke", choices=list(SCALE_NAMES))
    grid_parser.add_argument(
        "--list", action="store_true", help="list registered grids and exit"
    )
    grid_parser.add_argument("--csv", action="store_true", help="emit CSV instead of text")
    _add_engine_arguments(grid_parser)

    workload_parser = subparsers.add_parser("workload", help="inspect the synthetic trace")
    workload_parser.add_argument("--transactions", type=int, default=1000)
    workload_parser.add_argument("--accounts", type=int, default=18_000)
    workload_parser.add_argument("--payment-fraction", type=float, default=0.46)
    workload_parser.add_argument(
        "--zipf-s",
        type=float,
        default=DEFAULT_ZIPF_EXPONENT,
        help="Zipf skew of account activity (0 = uniform)",
    )
    workload_parser.add_argument("--seed", type=int, default=42)

    serve_parser = subparsers.add_parser(
        "serve", help="run one live replica server (asyncio TCP)"
    )
    serve_parser.add_argument(
        "--config",
        required=True,
        metavar="JSON|@FILE",
        help=(
            "the replica's whole configuration: the JSON of "
            "dataclasses.asdict(ReplicaRuntimeConfig), or @file holding it; "
            'at least {"replica_id": 0, "peers": ["host0:7000", ...]}'
        ),
    )

    cluster_parser = subparsers.add_parser(
        "cluster", help="spawn and supervise a local live cluster"
    )
    _add_cluster_arguments(cluster_parser)
    cluster_parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="seconds to run before shutting down (default: until Ctrl-C)",
    )

    chaos_parser = subparsers.add_parser(
        "chaos",
        help="run a fault-injected load experiment against a fresh live cluster",
    )
    _add_cluster_arguments(chaos_parser)
    # Fault-injected runs want fast proposals and a detector that fires
    # within the load window.
    chaos_parser.set_defaults(batch_interval=0.02, view_change_timeout=2.0)
    chaos_parser.add_argument("--transactions", type=_positive_int, default=1000)
    chaos_parser.add_argument("--mode", choices=["closed", "open"], default="closed")
    chaos_parser.add_argument("--concurrency", type=_positive_int, default=32)
    chaos_parser.add_argument("--rate", type=float, default=500.0)
    chaos_parser.add_argument("--payment-fraction", type=float, default=1.0)
    chaos_parser.add_argument("--client-timeout", type=float, default=None)
    chaos_parser.add_argument(
        "--straggle",
        action="append",
        default=[],
        metavar="REPLICA:FACTOR",
        help="slow one replica down (paper straggler: 0:10); repeatable",
    )
    chaos_parser.add_argument(
        "--crash",
        action="append",
        default=[],
        metavar="REPLICA:SECONDS",
        help="SIGKILL one replica at a time offset; repeatable",
    )
    chaos_parser.add_argument(
        "--restart",
        action="append",
        default=[],
        metavar="REPLICA:SECONDS",
        help="restart a crashed replica at a time offset; repeatable",
    )
    chaos_parser.add_argument(
        "--churn",
        action="append",
        default=[],
        metavar="AT:REPLICA:DOWNTIME",
        help=(
            "crash a replica at AT seconds and restart it DOWNTIME seconds "
            "later (combine with --durability for full rejoin); repeatable"
        ),
    )
    chaos_parser.add_argument(
        "--partition",
        action="append",
        default=[],
        metavar="AT:DURATION:GROUPS",
        help=(
            "split the cluster at AT seconds for DURATION seconds; GROUPS is "
            "pipe-separated comma lists of replica ids (e.g. '3' isolates "
            "replica 3, '0,1|2,3' splits in half); combine with --durability "
            "so the cut-off side catches up from its peers' WALs; repeatable"
        ),
    )
    chaos_parser.add_argument(
        "--expect-stall",
        action="store_true",
        help=(
            "acknowledge that a partition denies some quorum (required to "
            "run plans isolating more than f replicas from every group)"
        ),
    )
    chaos_parser.add_argument(
        "--byzantine",
        type=int,
        default=0,
        metavar="COUNT",
        help="replicas that abstain from instances they do not lead (Fig. 8)",
    )

    loadgen_parser = subparsers.add_parser(
        "loadgen", help="drive a live cluster with synthetic load"
    )
    loadgen_parser.add_argument(
        "--peers", required=True, help="comma-separated replica host:port endpoints"
    )
    loadgen_parser.add_argument("--transactions", type=_positive_int, default=1000)
    loadgen_parser.add_argument("--mode", choices=["closed", "open"], default="closed")
    loadgen_parser.add_argument("--concurrency", type=_positive_int, default=32)
    loadgen_parser.add_argument("--rate", type=float, default=500.0)
    loadgen_parser.add_argument("--payment-fraction", type=float, default=1.0)
    loadgen_parser.add_argument("--accounts", type=int, default=1024)
    loadgen_parser.add_argument("--workload-seed", type=int, default=42)
    loadgen_parser.add_argument(
        "--zipf-s",
        type=float,
        default=DEFAULT_ZIPF_EXPONENT,
        help="Zipf skew of the workload (sweep to vary contention)",
    )
    loadgen_parser.add_argument("--client-id", type=int, default=1000)
    loadgen_parser.add_argument("--timeout", type=float, default=5.0)
    loadgen_parser.add_argument(
        "--route-instances",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "leader-route each transaction to the f+1 replicas responsible "
            "for it (pass the cluster's instance count; default: submit to "
            "every replica)"
        ),
    )
    loadgen_parser.add_argument(
        "--trace-file",
        default=None,
        metavar="PATH",
        help=(
            "JSONL file the client's submitted/replied span events are "
            "appended to (point it into the cluster's run dir so repro "
            "trace can stitch the full timeline)"
        ),
    )
    loadgen_parser.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="fraction of transactions traced (must match the replicas' rate)",
    )

    top_parser = subparsers.add_parser(
        "top",
        help="live cluster state: poll status + metrics and render a table",
    )
    top_parser.add_argument(
        "--peers", required=True, help="comma-separated replica host:port endpoints"
    )
    top_parser.add_argument("--client-id", type=int, default=998)
    top_parser.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between refreshes (default: 1.0)",
    )
    top_parser.add_argument(
        "--iterations",
        type=_positive_int,
        default=None,
        help="refreshes before exiting (default: until Ctrl-C)",
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="stitch one transaction's cross-process timeline from trace files",
    )
    trace_parser.add_argument(
        "tx_id",
        nargs="?",
        default=None,
        help="transaction id (a unique prefix works); omit to list traced ids",
    )
    trace_parser.add_argument(
        "--dir",
        required=True,
        metavar="PATH",
        help="run directory containing the trace JSONL files (searched recursively)",
    )

    bench_parser = subparsers.add_parser(
        "bench",
        help="run the performance benchmark suite and emit BENCH_<n>.json",
    )
    from repro.bench import SUITE_NAMES

    bench_parser.add_argument(
        "--suite",
        default="quick",
        choices=list(SUITE_NAMES),
        help="quick: micro benchmarks only; full: + fig3-small sim and live cluster",
    )
    bench_parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the results as a BENCH_<n>.json report to PATH",
    )
    bench_parser.add_argument(
        "--pr",
        type=int,
        default=6,
        help="PR number recorded in the report (default: 6)",
    )
    bench_parser.add_argument(
        "--baselines",
        default=None,
        metavar="PATH",
        help=(
            "JSON mapping of benchmark name -> pre-PR value, merged into the "
            "report as baseline_pre_pr (speedups are derived)"
        ),
    )
    bench_parser.add_argument(
        "--check",
        default=None,
        metavar="PATH",
        help="compare against a committed BENCH_<n>.json; exit 1 on regression",
    )
    bench_parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="fractional regression tolerated by --check (default: 0.30)",
    )

    return parser


def _engine_from_args(args: argparse.Namespace) -> ExperimentEngine:
    try:
        return ExperimentEngine(cache_dir=args.cache_dir, jobs=args.jobs)
    except OSError as error:
        raise SystemExit(
            f"error: cannot use cache directory {args.cache_dir!r}: {error}"
        ) from None


def _spec_from_args(args: argparse.Namespace, protocol: str) -> ScenarioSpec:
    faults = FaultSpec.with_straggler(instance=1) if args.straggler else FaultSpec.none()
    return ScenarioSpec(
        protocol=protocol,
        num_replicas=args.replicas,
        environment=args.environment,
        duration=args.duration,
        warmup=args.warmup,
        samples_per_block=6,
        seed=args.seed,
        workload_seed=_CLI_WORKLOAD_SEED,
        payment_fraction=getattr(args, "payment_fraction", None),
        zipf_s=getattr(args, "zipf_s", None),
        faults=faults,
        backend=getattr(args, "backend", "sim"),
    )


def _command_run(args: argparse.Namespace) -> int:
    engine = _engine_from_args(args)
    result = engine.run_one(_spec_from_args(args, args.protocol))
    metrics = result.metrics
    if args.csv:
        print(export_csv({args.protocol: metrics}), end="")
        return 0
    print(summarize({args.protocol: metrics}))
    print("stage breakdown:")
    for stage, seconds in metrics.stage_breakdown.items():
        print(f"  {stage:<18} {seconds:7.3f} s")
    spark = throughput_sparkline(metrics)
    if spark:
        print(f"throughput over time: [{spark}]")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    args.payment_fraction = 0.46
    engine = _engine_from_args(args)
    specs = [_spec_from_args(args, protocol) for protocol in PROTOCOL_NAMES]
    results = results_by_protocol(engine.run(specs))
    print(summarize(results))
    print()
    for comparison in compare_latency(results, "orthrus"):
        print(
            f"orthrus vs {comparison.reference:<8} "
            f"latency reduction {comparison.latency_reduction_percent:6.1f} %   "
            f"throughput ratio {comparison.throughput_ratio:5.2f}x"
        )
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    engine = _engine_from_args(args)
    if args.name == "fig3":
        for stragglers in (0, 1):
            points = scalability_sweep(
                "wan", stragglers=stragglers, scale=args.scale, engine=engine
            )
            print(scalability_table(points))
            print()
    elif args.name == "fig4":
        for stragglers in (0, 1):
            points = scalability_sweep(
                "lan", stragglers=stragglers, scale=args.scale, engine=engine
            )
            print(scalability_table(points))
            print()
    elif args.name == "fig5":
        for stragglers in (0, 1):
            print(
                proportion_table(
                    payment_proportion_sweep(
                        stragglers=stragglers, scale=args.scale, engine=engine
                    )
                )
            )
            print()
    elif args.name == "fig6":
        print(breakdown_table(latency_breakdown(scale=args.scale, engine=engine)))
    elif args.name == "fig7":
        print(
            fault_timeline_table(
                detectable_fault_timelines(scale=args.scale, engine=engine)
            )
        )
    elif args.name == "fig8":
        print(undetectable_table(undetectable_fault_sweep(scale=args.scale, engine=engine)))
    return 0


def _command_grid(args: argparse.Namespace) -> int:
    if args.list or args.name is None:
        for name in grid_names():
            print(f"{name:<10} {grid(name).description}")
        if args.name is None and not args.list:
            print("\nerror: grid name required (or use --list)", file=sys.stderr)
            return 2
        return 0
    engine = _engine_from_args(args)
    try:
        specs = expand_grid(args.name, scale=args.scale)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    results = engine.run(specs)
    summary = f"# grid {args.name} [{args.scale}] — {engine_summary(engine)}"
    if args.csv:
        print(export_results_csv(results), end="")
        print(summary, file=sys.stderr)
    else:
        print(grid_table(results))
        print(summary)
    return 0


def _parse_peers(text: str) -> list[tuple[str, int]]:
    from repro.runtime.config import parse_endpoint

    # ConfigurationError propagates to main()'s ReproError handler (exit 2),
    # the same path every other bad-configuration error takes.
    return [parse_endpoint(entry.strip()) for entry in text.split(",") if entry.strip()]


def _serve_config(args: argparse.Namespace):
    """The :class:`ReplicaRuntimeConfig` ``repro serve`` runs with."""
    from repro.runtime.config import ReplicaRuntimeConfig, load_json_or_file

    return ReplicaRuntimeConfig.from_dict(
        load_json_or_file(args.config, what="replica config")
    )


def _command_serve(args: argparse.Namespace) -> int:
    from repro.obs.logging import setup_logging
    from repro.runtime.server import run_server
    from repro.runtime.transport import install_uvloop

    config = _serve_config(args)
    setup_logging(
        config.log_level,
        config.log_format,
        context={"replica": config.replica_id},
    )
    install_uvloop()
    asyncio.run(run_server(config))
    return 0


def _cluster_spec_from_args(args: argparse.Namespace, faults):
    """The :class:`ClusterSpec` ``cluster`` and ``chaos`` run under ``faults``."""
    from repro.runtime.cluster import ClusterSpec

    return ClusterSpec(
        num_replicas=args.replicas,
        num_instances=args.instances,
        protocol=args.protocol,
        base_port=args.base_port,
        batch_size=args.batch_size,
        batch_interval=args.batch_interval,
        epoch_length=args.epoch_length,
        view_change_timeout=faults.view_change_timeout,
        workload=WorkloadConfig(
            num_accounts=args.accounts,
            seed=args.workload_seed,
            zipf_exponent=args.zipf_s,
        ),
        faults=faults,
        transport=args.transport,
        workers=args.workers,
        obs_enabled=not args.no_obs,
        run_dir=args.run_dir,
        durability=args.durability,
        snapshot_every_epochs=args.snapshot_every_epochs,
        trace_sample=args.trace_sample,
        metrics_interval=args.metrics_interval,
        log_level=args.log_level,
        log_format=args.log_format,
    )


def _print_cluster_statuses(statuses) -> None:
    digests = {status.state_digest for status in statuses}
    for status in sorted(statuses, key=lambda s: s.replica):
        print(
            f"replica {status.replica}: committed={status.committed} "
            f"rejected={status.rejected} view_changes={status.view_changes} "
            f"digest={status.state_digest[:16]}..."
        )
    agreement = "yes" if len(digests) <= 1 else "NO — replicas diverged!"
    print(f"state digests agree: {agreement}")


def _command_cluster(args: argparse.Namespace) -> int:
    import time as _time

    from repro.cluster.faults import FaultPlan
    from repro.runtime.chaos import ChaosController, fault_plan_from_json
    from repro.runtime.client import ClientConfig, OrthrusClient
    from repro.runtime.cluster import LocalCluster
    from repro.runtime.config import format_endpoint

    if args.fault_plan is not None:
        faults = fault_plan_from_json(
            args.fault_plan, default_view_change_timeout=args.view_change_timeout
        )
    else:
        faults = FaultPlan.none()
        faults.view_change_timeout = args.view_change_timeout
    if args.wan is not None:
        faults.wan = args.wan
    spec = _cluster_spec_from_args(args, faults)
    cluster = LocalCluster(spec)
    cluster.start()
    controller = ChaosController(cluster, faults)
    peers = ",".join(format_endpoint(endpoint) for endpoint in cluster.endpoints)
    print(f"cluster up: {args.replicas} replicas, {spec.num_instances or args.replicas} instances")
    print(f"peers: {peers}")
    if cluster.run_dir is not None:
        print(f"run dir: {cluster.run_dir}")
        if spec.trace_sample > 0:
            print(
                f"loadgen: repro loadgen --peers {peers} "
                f"--trace-file {cluster.run_dir / 'client' / 'trace.jsonl'} "
                f"--trace-sample {spec.trace_sample}"
            )
            print(f"trace:   repro trace <tx-id> --dir {cluster.run_dir}")
    else:
        print(f"loadgen: repro loadgen --peers {peers} --transactions 1000")

    async def final_status():
        client = OrthrusClient(list(cluster.endpoints), ClientConfig(client_id=999))
        # Chaos-crashed replicas may be unreachable; probe the survivors.
        await client.connect(require_all=not controller.down)
        try:
            statuses = await client.cluster_status()
            await client.shutdown_cluster("cluster supervisor shutdown")
            return statuses
        finally:
            await client.close()

    exit_code = 0
    started = _time.monotonic()
    try:
        deadline = None if args.duration is None else started + args.duration
        while deadline is None or _time.monotonic() < deadline:
            # Event-driven supervision: wakes immediately when a child exits
            # instead of discovering it on the next poll tick.
            cluster.wait_for_exit(0.25)
            for event in controller.poll(_time.monotonic() - started):
                print(f"chaos: {event.describe()} @ {event.at:.2f}s")
            dead = controller.unexpected_exits()
            if dead:
                print(f"error: replicas exited unexpectedly: {dead}", file=sys.stderr)
                exit_code = 1
                break
        if exit_code == 0:
            # A scheduled fault that never fired means the run did not cover
            # the requested plan — that is a failed measurement, not a note.
            for at, action, target in controller.unfired_actions():
                print(
                    f"error: {action} ({target}) scheduled at {at:.2f}s "
                    f"never fired — extend --duration to cover the plan",
                    file=sys.stderr,
                )
                exit_code = 1
    except KeyboardInterrupt:
        print("\ninterrupted — shutting down cluster")
    if exit_code == 0:
        try:
            _print_cluster_statuses(asyncio.run(final_status()))
        except Exception as error:  # noqa: BLE001 - shutdown is best-effort
            print(f"warning: could not collect final statuses: {error}", file=sys.stderr)
    cluster.stop()
    return exit_code


def _parse_fault_pairs(entries: list[str], flag: str) -> dict[int, float]:
    pairs: dict[int, float] = {}
    for entry in entries:
        replica_text, separator, value_text = entry.partition(":")
        if not separator:
            raise ConfigurationError(
                f"--{flag} expects REPLICA:VALUE, got {entry!r}"
            )
        try:
            pairs[int(replica_text)] = float(value_text)
        except ValueError:
            raise ConfigurationError(
                f"--{flag} expects numeric REPLICA:VALUE, got {entry!r}"
            ) from None
    return pairs


def _parse_churn(entries: list[str]) -> tuple[tuple[float, int, float], ...]:
    cycles: list[tuple[float, int, float]] = []
    for entry in entries:
        parts = entry.split(":")
        if len(parts) != 3:
            raise ConfigurationError(
                f"--churn expects AT:REPLICA:DOWNTIME, got {entry!r}"
            )
        try:
            cycles.append((float(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError:
            raise ConfigurationError(
                f"--churn expects numeric AT:REPLICA:DOWNTIME, got {entry!r}"
            ) from None
    return tuple(cycles)


def _parse_partitions(
    entries: list[str],
) -> tuple[tuple[float, tuple[tuple[int, ...], ...], float], ...]:
    rules: list[tuple[float, tuple[tuple[int, ...], ...], float]] = []
    for entry in entries:
        parts = entry.split(":", 2)
        if len(parts) != 3:
            raise ConfigurationError(
                f"--partition expects AT:DURATION:GROUPS, got {entry!r}"
            )
        at_text, duration_text, groups_text = parts
        try:
            at_time = float(at_text)
            duration = float(duration_text)
            groups = tuple(
                tuple(int(r) for r in group.split(",") if r.strip())
                for group in groups_text.split("|")
            )
        except ValueError:
            raise ConfigurationError(
                f"--partition expects numeric AT:DURATION:GROUPS "
                f"(groups like '3' or '0,1|2,3'), got {entry!r}"
            ) from None
        if not groups or any(not group for group in groups):
            raise ConfigurationError(
                f"--partition needs at least one non-empty group, got {entry!r}"
            )
        rules.append((at_time, groups, duration))
    return tuple(rules)


def _command_chaos(args: argparse.Namespace) -> int:
    from repro.cluster.faults import FaultPlan
    from repro.runtime.chaos import (
        fault_plan_from_json,
        run_chaos,
        validate_fault_plan,
    )
    from repro.runtime.client import ClientConfig
    from repro.runtime.loadgen import LoadGenConfig

    if args.fault_plan is not None:
        plan = fault_plan_from_json(
            args.fault_plan, default_view_change_timeout=args.view_change_timeout
        )
    else:
        plan = FaultPlan(
            stragglers=_parse_fault_pairs(args.straggle, "straggle"),
            crashes=_parse_fault_pairs(args.crash, "crash"),
            restarts=_parse_fault_pairs(args.restart, "restart"),
            churn=_parse_churn(args.churn),
            partitions=_parse_partitions(args.partition),
            wan=args.wan,
            expect_stall=args.expect_stall,
            view_change_timeout=args.view_change_timeout,
            undetectable_faults=args.byzantine,
        )
    validate_fault_plan(plan, args.replicas)
    if (plan.partitions or plan.oneway_drops) and not args.durability:
        print(
            "chaos: WARNING partition without --durability: replicas keep no "
            "block history in memory, so a replica that misses blocks behind "
            "the cut cannot be caught up after the heal",
            file=sys.stderr,
        )
    spec = _cluster_spec_from_args(args, plan)
    # Submissions routed through a crashed leader's instance must outlive the
    # view change, so the client's patience scales with the detector timeout.
    timeout = (
        args.client_timeout
        if args.client_timeout is not None
        else max(5.0, plan.view_change_timeout + 3.0)
    )
    load = LoadGenConfig(
        transactions=args.transactions,
        mode=args.mode,
        concurrency=args.concurrency,
        rate_tps=args.rate,
        workload=replace(spec.workload, payment_fraction=args.payment_fraction),
        client=ClientConfig(
            client_id=1000,
            timeout=timeout,
            retries=3,
        ),
    )
    print(
        f"# chaos [{plan_summary(plan)}] — {args.replicas} replicas, "
        f"{spec.num_instances or args.replicas} instances, "
        f"{args.transactions} tx ({args.mode})"
    )
    result = asyncio.run(run_chaos(spec, load))
    for line in result.lines():
        print(line)
    return 0 if result.ok else 1


def plan_summary(plan) -> str:
    """One-line description of a fault plan for headers and logs."""
    parts = []
    if plan.stragglers:
        parts.append(
            "straggle " + ",".join(f"{r}x{s:g}" for r, s in sorted(plan.stragglers.items()))
        )
    if plan.crashes:
        parts.append(
            "crash " + ",".join(f"{r}@{t:g}s" for r, t in sorted(plan.crashes.items()))
        )
    if plan.restarts:
        parts.append(
            "restart " + ",".join(f"{r}@{t:g}s" for r, t in sorted(plan.restarts.items()))
        )
    if plan.churn:
        parts.append(
            "churn "
            + ",".join(
                f"{replica}@{at:g}s+{downtime:g}s"
                for at, replica, downtime in sorted(plan.churn)
            )
        )
    if plan.partitions:
        parts.append(
            "partition "
            + ",".join(
                "|".join("{" + ",".join(map(str, group)) + "}" for group in groups)
                + f"@{at:g}s+{duration:g}s"
                for at, groups, duration in plan.partitions
            )
        )
    if plan.oneway_drops:
        parts.append(
            "drop "
            + ",".join(
                f"{source}->{destination}@{at:g}s+{duration:g}s"
                for at, source, destination, duration in plan.oneway_drops
            )
        )
    if plan.wan is not None:
        parts.append(
            f"wan {plan.wan}" if isinstance(plan.wan, str) else "wan matrix"
        )
    if plan.undetectable_faults:
        parts.append(f"byzantine x{plan.undetectable_faults}")
    return "; ".join(parts) if parts else "no faults"


def _command_loadgen(args: argparse.Namespace) -> int:
    from repro.runtime.client import ClientConfig
    from repro.runtime.loadgen import LoadGenConfig, run_loadgen
    from repro.runtime.transport import install_uvloop

    peers = _parse_peers(args.peers)
    config = LoadGenConfig(
        transactions=args.transactions,
        mode=args.mode,
        concurrency=args.concurrency,
        rate_tps=args.rate,
        workload=WorkloadConfig(
            num_accounts=args.accounts,
            seed=args.workload_seed,
            payment_fraction=args.payment_fraction,
            zipf_exponent=args.zipf_s,
        ),
        client=ClientConfig(
            client_id=args.client_id,
            timeout=args.timeout,
            route_instances=args.route_instances,
        ),
        trace_file=args.trace_file,
        trace_sample=args.trace_sample,
    )
    install_uvloop()
    report = asyncio.run(run_loadgen(peers, config))
    print(f"# loadgen [{args.mode}] against {len(peers)} replicas")
    for line in report.lines():
        print(line)
    return 0 if report.failed == 0 and report.digests_agree else 1


def _human_bytes(value: float) -> str:
    """Render a byte count with a binary suffix (metrics tables)."""
    amount = float(value)
    for suffix in ("B", "KiB", "MiB", "GiB"):
        if amount < 1024 or suffix == "GiB":
            return f"{amount:.0f}{suffix}" if suffix == "B" else f"{amount:.1f}{suffix}"
        amount /= 1024
    return f"{amount:.1f}GiB"  # pragma: no cover - unreachable


def _command_top(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import format_table
    from repro.runtime.client import ClientConfig, ClientError, OrthrusClient
    from repro.runtime.transport import install_uvloop

    peers = _parse_peers(args.peers)

    async def watch() -> int:
        client = OrthrusClient(peers, ClientConfig(client_id=args.client_id))
        await client.connect(require_all=False)
        iteration = 0
        try:
            while args.iterations is None or iteration < args.iterations:
                if iteration:
                    await asyncio.sleep(args.interval)
                iteration += 1
                try:
                    statuses = {s.replica: s for s in await client.cluster_status()}
                except ClientError as error:
                    print(f"warning: {error}", file=sys.stderr)
                    continue
                metric_replies = {}
                try:
                    metric_replies = {
                        m.replica: m for m in await client.cluster_metrics()
                    }
                except ClientError:
                    # Metrics disabled (--no-obs) or no answers: the status
                    # columns still render.
                    pass
                rows = []
                for replica_id in sorted(statuses):
                    status = statuses[replica_id]
                    reply = metric_replies.get(replica_id)
                    values = reply.metrics if reply is not None else {}
                    rows.append(
                        (
                            replica_id,
                            f"{reply.uptime:.0f}s" if reply is not None else "-",
                            status.committed,
                            status.rejected,
                            status.view_changes,
                            int(values.get("consensus.global_pending", 0)),
                            int(values.get("transport.queue_depth", 0)),
                            _human_bytes(values.get("transport.bytes_in", 0.0)),
                            _human_bytes(values.get("transport.bytes_out", 0.0)),
                            int(values.get("replica.reply_cache_size", 0)),
                        )
                    )
                print(f"# refresh {iteration}: {len(statuses)} replicas answering")
                print(
                    format_table(
                        [
                            "replica",
                            "up",
                            "committed",
                            "rejected",
                            "views",
                            "pending",
                            "queue",
                            "bytes in",
                            "bytes out",
                            "reply cache",
                        ],
                        rows,
                    )
                )
        finally:
            await client.close()
        return 0

    install_uvloop()
    return asyncio.run(watch())


def _command_trace(args: argparse.Namespace) -> int:
    from repro.obs.trace import load_trace_events, stitch, trace_tx_ids

    events = load_trace_events(args.dir)
    if not events:
        print(f"error: no trace events under {args.dir}", file=sys.stderr)
        return 2
    if args.tx_id is None:
        tx_ids = trace_tx_ids(events)
        print(f"# {len(tx_ids)} traced transactions under {args.dir}")
        for tx_id in tx_ids[:50]:
            print(tx_id)
        if len(tx_ids) > 50:
            print(f"# ... and {len(tx_ids) - 50} more")
        return 0
    try:
        stitched = stitch(events, args.tx_id)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if stitched is None:
        print(
            f"error: no events for tx {args.tx_id!r} under {args.dir}",
            file=sys.stderr,
        )
        return 2
    for line in stitched.lines():
        print(line)
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    import json as _json

    from repro.bench import check_regressions, load_report, run_suite, write_report
    from repro.bench.report import build_report, format_results

    # Validate every input file before running the suite: benchmarks take
    # minutes (the full suite spawns a live cluster), and a typo'd path must
    # not discard that work with a traceback at the end.
    baselines = None
    committed = None
    try:
        if args.baselines is not None:
            with open(args.baselines, "r", encoding="utf-8") as handle:
                baselines = _json.load(handle)
        if args.check is not None:
            committed = load_report(args.check)
        if args.output is not None:
            directory = os.path.dirname(os.path.abspath(args.output))
            if not os.path.isdir(directory):
                raise OSError(f"output directory {directory!r} does not exist")
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    results = run_suite(args.suite, progress=lambda name: print(f"# {name} ..."))
    print(format_results(results))
    if args.output is not None:
        report = build_report(results, pr=args.pr, suite=args.suite, baselines=baselines)
        write_report(report, args.output)
        print(f"# wrote {args.output}")
    if committed is not None:
        failures = check_regressions(results, committed, tolerance=args.tolerance)
        if failures:
            for line in failures:
                print(f"REGRESSION: {line}", file=sys.stderr)
            return 1
        print(f"# no regressions vs {args.check} (tolerance {args.tolerance:.0%})")
    return 0


def _command_workload(args: argparse.Namespace) -> int:
    config = WorkloadConfig(
        num_accounts=args.accounts,
        num_transactions=args.transactions,
        payment_fraction=args.payment_fraction,
        zipf_exponent=args.zipf_s,
        seed=args.seed,
    )
    trace = EthereumStyleWorkload(config).generate()
    stats = trace.statistics
    print(f"transactions            : {stats.total}")
    print(f"payments                : {stats.payments} ({stats.payment_fraction * 100:.1f} %)")
    print(f"contract calls          : {stats.contracts}")
    print(f"multi-payer payments    : {stats.multi_payer_payments}")
    print(f"multi-caller contracts  : {stats.multi_caller_contracts}")
    print(f"distinct active accounts: {stats.unique_accounts}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _command_run,
        "compare": _command_compare,
        "figure": _command_figure,
        "grid": _command_grid,
        "workload": _command_workload,
        "bench": _command_bench,
        "serve": _command_serve,
        "cluster": _command_cluster,
        "chaos": _command_chaos,
        "loadgen": _command_loadgen,
        "top": _command_top,
        "trace": _command_trace,
    }
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        # Long grid/loadgen/serve runs are routinely cut short; exit quietly
        # with the conventional SIGINT code instead of spewing a traceback.
        print("\ninterrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Output piped into `head`/`less` that closed early (listing traced
        # tx ids is the common case); swallow the shutdown-flush error too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the shell convention
    except ReproError as error:
        # Library-level configuration/runtime errors (bad peer lists, replica
        # counts, workload ranges, ...) are user errors, not tracebacks.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
