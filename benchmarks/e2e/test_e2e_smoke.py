"""Smoke test of the end-to-end benchmark (collected by the tier-1 run).

Runs ``run.py --quick`` — every workload, untraced and traced, about a second
each — and checks its output against ``BENCHMARK.json``.  A refactor that
renames a function the benchmark wraps, or puts the WAL or obs on the path of
a workload chosen to bypass them, fails here rather than in the next
performance claim.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_meets_the_driver_contract():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    names = [entry["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for entry in CONTRACT[kind]]
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    assert CONTRACT["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS]
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


@pytest.fixture(scope="module")
def quick_results():
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_quick_run_reports_every_metric_of_every_workload(quick_results):
    assert list(quick_results) == [w["name"] for w in CONTRACT["workloads"]]
    for result in quick_results.values():
        for kind in ("end_to_end", "per_layer"):
            expected = {m["name"]: m["unit"] for m in CONTRACT[kind]}
            reported = {name: entry["unit"] for name, entry in result[kind].items()}
            assert reported == expected
        assert all(entry["value"] > 0 for entry in result["end_to_end"].values())


def test_every_wrapped_layer_is_on_some_workloads_path(quick_results):
    """A wrapper around a renamed or removed callable records nothing."""
    for metric in CONTRACT["per_layer"]:
        name = metric["name"]
        values = [result["per_layer"][name]["value"] for result in quick_results.values()]
        assert any(value != 0 for value in values), name


def test_wal_and_obs_are_off_the_path_of_the_bypass_workloads(quick_results):
    for name, result in quick_results.items():
        layers = result["per_layer"]
        used = sum(
            layers[metric]["value"]
            for metric in ("wal.flush_calls_per_tx", "obs.trace_emit_us_per_tx")
        )
        assert (used > 0) == (name == "durable_mixed_closed")
