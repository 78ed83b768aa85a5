"""End-to-end benchmark of the Orthrus reproduction: one command, four workloads.

Driver form, one workload per invocation, the result as the last stdout line::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` every workload runs, untraced and then traced, and a
table of every metric is printed; ``--selfcheck`` runs that twice (A/A) and
fails if the two disagree by more than a metric's bound; ``--quick`` is the
seconds-long version the smoke test runs.  See README.md beside this file.
"""

from __future__ import annotations

import time

PROCESS_STARTED = time.perf_counter()  # a child's set-up time counts its imports

import argparse  # noqa: E402
import asyncio  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
from spans import percentile  # noqa: E402
from workloads import BY_NAME, WORKLOADS, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch space inside the checkout (git-ignored): per-repeat directories
#: that are removed again, and the span files of the last traced repeats.
SCRATCH = ROOT / ".bench_e2e"
#: Repeats of one untraced run, each a fresh process with its own cluster.
REPEATS = 3
#: A repeat takes about 10 s; three timeouts still end inside the driver's 180 s.
CHILD_TIMEOUT = 55.0
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Off the path of every workload but ``durable_mixed_closed``, by design.
DURABLE_ONLY_LAYERS = (
    "wal.append_us_per_tx",
    "wal.flush_calls_per_tx",
    "wal.bytes_per_tx",
    "obs.trace_emit_us_per_tx",
)


# -- a repeat: a child process ------------------------------------------------


def child_main(spec: dict) -> None:
    """Run one repeat inside its scratch directory; raw result on stdout."""
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(spec["directory"])
    workload = dataclasses.replace(
        BY_NAME[spec["workload"]], warmup_seconds=spec["warmup_seconds"]
    )
    if workload.loop == "sim":
        from simcell import run_repeat
    else:
        from live import run_repeat
    result = run_repeat(
        workload,
        spec["seed"],
        spec["window_seconds"],
        spec["trace"],
        PROCESS_STARTED,
        spec["spans_path"],
    )
    json.dump(result, sys.stdout)


def run_child(
    workload: Workload, seed: int, window_seconds: float, *, trace: bool, quick: bool
) -> dict:
    """One repeat in a fresh interpreter: clean heap, own cluster, own
    directory, and a pinned hash seed so dict and set order cannot differ."""
    SCRATCH.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH)
    spec = {
        "workload": workload.name,
        "seed": seed,
        "window_seconds": window_seconds,
        "warmup_seconds": workload.warmup_seconds * (0.2 if quick else 1.0),
        "trace": trace,
        "directory": directory,
        "spans_path": str(SCRATCH / f"spans-{workload.name}.jsonl"),
    }
    try:
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--child", json.dumps(spec)],
            env={**os.environ, "PYTHONHASHSEED": "0"},
            stdout=subprocess.PIPE,
            timeout=CHILD_TIMEOUT,
            check=True,
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {**json.loads(completed.stdout), "window_seconds": window_seconds}


# -- from raw repeats to metrics --------------------------------------------------


def at_reference_speed(workload: Workload, raw: dict) -> dict:
    """One repeat's times rescaled to the reference host (see hostspeed)."""
    factor = hostspeed.speed_factor(raw["calibration_ms"])
    wall = raw["wall_s"]
    stretch = 1.0
    if workload.loop != "open":
        # An open loop's window is its schedule, whatever the host's speed.
        wall = hostspeed.rescale(wall, raw["cpu_s"], factor)
    if workload.loop == "closed":
        # A saturated closed loop's latency is queueing for the CPU, so it
        # scales with the window.  Open-loop latency is injected delay and
        # simulated latency is not wall time: both stay as measured.
        stretch = wall / raw["wall_s"]
    committed = max(raw["committed"], 1)
    return {
        "speed_factor": factor,
        "setup_s": hostspeed.rescale(
            raw["setup_wall_s"],
            raw["setup_cpu_s"],
            hostspeed.speed_factor(raw["setup_calibration_ms"]),
        ),
        "committed_tps": raw["committed"] / wall,
        "cpu_us_per_tx": hostspeed.cpu_at_reference(raw["wall_s"], raw["cpu_s"], factor)
        / committed
        * 1e6,
        "payment_ms": [value * stretch for value in raw["payment_ms"]],
        "contract_ms": [value * stretch for value in raw["contract_ms"]],
        "rss_kb_per_tx": raw["rss_growth_kb"] / committed,
    }


def end_to_end(workload: Workload, raws: list[dict]) -> dict[str, float]:
    """Medians over the repeats; latency means over their pooled logs."""
    repeats = [at_reference_speed(workload, raw) for raw in raws]
    payments = [value for repeat in repeats for value in repeat["payment_ms"]]
    contracts = [value for repeat in repeats for value in repeat["contract_ms"]]

    def median(key: str) -> float:
        values = [repeat[key] for repeat in repeats]
        shown = " ".join(f"{value:.4g}" for value in values)
        print(f"  {workload.name} {key} per repeat: {shown}", file=sys.stderr)
        return statistics.median(values)

    median("speed_factor")
    return {
        "setup_s": median("setup_s"),
        "committed_tps": median("committed_tps"),
        "cpu_us_per_tx": median("cpu_us_per_tx"),
        "payment_mean_ms": statistics.fmean(payments),
        "contract_mean_ms": statistics.fmean(contracts),
        "rss_kb_per_tx": median("rss_kb_per_tx"),
    }


def per_layer(workload: Workload, untraced: dict, traced: dict) -> dict[str, float]:
    """The traced repeat's layer metrics plus what needs the untraced one."""
    layers = dict(traced["layers"])
    reference = at_reference_speed(workload, untraced)
    traced_cpu = at_reference_speed(workload, traced)["cpu_us_per_tx"]
    layers["trace.overhead_frac"] = traced_cpu / reference["cpu_us_per_tx"] - 1.0
    # Percentiles and peak memory come from the untraced repeat: reported
    # for the reader, too unsteady on this host to carry a bound (README).
    for kind in ("payment", "contract"):
        for name, fraction in (("p50", 0.50), ("p99", 0.99)):
            layers[f"latency.{kind}_{name}_ms"] = percentile(reference[f"{kind}_ms"], fraction)
    layers["mem.peak_rss_mb"] = untraced["peak_rss_mb"]
    layers["host.speed_factor"] = hostspeed.speed_factor(traced["calibration_ms"])
    return {
        metric["name"]: float(layers.get(metric["name"], 0.0))
        for metric in CONTRACT["per_layer"]
    }


def failed_checks(workload: Workload, raws: list[dict]) -> list[str]:
    """Names of the output checks that did not hold in some repeat."""
    failed = {name for raw in raws for name, holds in raw["checks"].items() if not holds}
    if workload.loop == "sim" and any(
        (raw["payment_ms"], raw["contract_ms"])
        != (raws[0]["payment_ms"], raws[0]["contract_ms"])
        for raw in raws
    ):
        failed.add("simulated_latencies_repeat_exactly")
    if not workload.durable_and_observed:
        for raw in raws:
            layers = raw.get("layers", {})
            failed.update(name + "_is_zero" for name in DURABLE_ONLY_LAYERS if layers.get(name))
    return sorted(failed)


def measure(
    workload: Workload, seed: int, seconds: float, *, trace: bool, quick: bool = False,
    untraced: dict | None = None,
) -> tuple[dict, list[dict]]:
    """Run one workload; the driver's result object and the raw repeats.

    Untraced: ``REPEATS`` repeats share ``seconds`` (and the seed, so the
    inputs).  Traced: one traced repeat, compared with ``untraced`` — a repeat
    of the same window, run first when the caller has none.
    """
    if trace:
        window = untraced["window_seconds"] if untraced else seconds / 2
        if untraced is None:
            untraced = run_child(workload, seed, window, trace=False, quick=quick)
        raws = [untraced, run_child(workload, seed, window, trace=True, quick=quick)]
        metrics = per_layer(workload, *raws)
        units = {metric["name"]: metric["unit"] for metric in CONTRACT["per_layer"]}
    else:
        repeats = 1 if quick else REPEATS
        raws = [
            run_child(workload, seed, seconds / repeats, trace=False, quick=quick)
            for _ in range(repeats)
        ]
        metrics = end_to_end(workload, raws)
        units = {metric["name"]: metric["unit"] for metric in CONTRACT["end_to_end"]}
    failed = failed_checks(workload, raws)
    if failed:
        print(f"  {workload.name} failed checks: {failed}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": sum(raw["attempted"] for raw in raws),
        "failed": sum(raw["failed"] for raw in raws),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    return result, raws


# -- the suite: every workload, a table, A/A -----------------------------------------


def run_suite(seed: int, seconds: float, quick: bool) -> dict[str, dict]:
    """Every workload untraced, then one traced repeat of the same window."""
    results = {}
    for workload in WORKLOADS:
        untraced, raws = measure(workload, seed, seconds, trace=False, quick=quick)
        traced, _ = measure(
            workload, seed, seconds, trace=True, quick=quick, untraced=raws[0]
        )
        for result in (untraced, traced):
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload.name}: outputs are wrong; no metrics")
        results[workload.name] = {
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
        }
    return results


def print_suite(results: dict[str, dict]) -> None:
    for kind in ("end_to_end", "per_layer"):
        header = "".join(f"{name:>22}" for name in results)
        print(f"\n{kind + ' metric':34}{'unit':7}{'better':8}{'bound':>6}{header}")
        for metric in CONTRACT[kind]:
            bound = f"{metric['bound']:.0%}" if "bound" in metric else "-"
            values = "".join(
                f"{result[kind][metric['name']]['value']:>22.4f}"
                for result in results.values()
            )
            print(f"{metric['name']:34}{metric['unit']:7}{metric['better']:8}{bound:>6}{values}")


def print_meta(seed: int, seconds: float, quick: bool) -> None:
    SCRATCH.mkdir(exist_ok=True)
    mounts = [line.split() for line in Path("/proc/mounts").read_text().splitlines()]
    under = [m for m in mounts if str(SCRATCH).startswith(m[1])]
    filesystem = max(under, key=lambda m: len(m[1]))[2] if under else "unknown"
    print(
        f"meta: nproc={os.cpu_count()} python={platform.python_version()} "
        f"loop={type(asyncio.new_event_loop()).__name__} run_dir_fs={filesystem} "
        f"seed={seed} seconds={seconds} repeats={1 if quick else REPEATS} "
        f"reference_kernel_ms={hostspeed.REFERENCE_MS}"
    )


def selfcheck(first: dict[str, dict], second: dict[str, dict]) -> bool:
    """Print A/A differences against each bound; whether all are within."""
    within = True
    print(f"\n{'workload':22}{'metric':18}{'A':>12}{'B':>12}{'B worse by':>12}{'bound':>7}")
    for name in first:
        for metric in CONTRACT["end_to_end"]:
            a = first[name]["end_to_end"][metric["name"]]["value"]
            b = second[name]["end_to_end"][metric["name"]]["value"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            breach = abs(worse) > metric["bound"]
            within = within and not breach
            print(
                f"{name:22}{metric['name']:18}{a:12.3f}{b:12.3f}{worse:+12.1%}"
                f"{metric['bound']:7.0%}{'  BREACH' if breach else ''}"
            )
    return within


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=CONTRACT["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="one repeat of 1.5 s and a fifth of the warm-up per workload",
    )
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="run the suite twice and hold the difference against the bounds",
    )
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child_main(json.loads(args.child))
        return
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit("the program under test (src/repro) is not in this checkout")
    seconds = 1.5 if args.quick else args.seconds
    if args.workload:
        result, _ = measure(
            BY_NAME[args.workload], args.seed, seconds, trace=bool(args.trace),
            quick=args.quick,
        )
        print(json.dumps(result))
        if not result["correct"]:
            raise SystemExit(1)
        return
    print_meta(args.seed, seconds, args.quick)
    results = run_suite(args.seed, seconds, args.quick)
    print_suite(results)
    if args.selfcheck and not selfcheck(results, run_suite(args.seed, seconds, args.quick)):
        raise SystemExit(1)
    print(json.dumps(results))


if __name__ == "__main__":
    main()
