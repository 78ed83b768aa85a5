"""Shared fixtures for the figure-reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's evaluation
section.  Results (the same rows/series the paper plots) are printed and also
written to ``benchmarks/results/`` so EXPERIMENTS.md can reference them.

All figure benchmarks share one session-scoped
:class:`~repro.experiments.engine.ExperimentEngine`, so overlapping grid
cells (e.g. the Fig. 3 sweep and the headline-claims table) are simulated
once and served from the cache afterwards.

Environment variables:

* ``REPRO_BENCH_SCALE`` — run size: ``smoke`` (minutes-long sanity runs),
  ``ci`` (the default; full replica grid with laptop-sized windows) or
  ``paper`` (the full windows reported in EXPERIMENTS.md).
* ``REPRO_BENCH_JOBS`` — worker processes for grid cells (default: two,
  or one on a single-core host; parallel runs produce results identical to
  serial runs, so the tables do not depend on it).
* ``REPRO_BENCH_CACHE_DIR`` — result-cache directory (defaults to
  ``benchmarks/results/cache``; set to an empty string to disable caching).
  Cached cells carry a fingerprint of the ``repro`` sources, so editing
  simulation code invalidates them automatically.  Note that on a warm cache
  pytest-benchmark timings measure cache loads, not simulations.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.experiments.engine import ExperimentEngine
from repro.experiments.reporting import engine_summary

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def bench_scale() -> str:
    """Scale name used by all scenario benchmarks."""
    return os.environ.get("REPRO_BENCH_SCALE", "ci")


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    """Directory where benchmark tables are written."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def engine(results_dir) -> ExperimentEngine:
    """Session-wide experiment engine shared by every figure benchmark."""
    cache_dir = os.environ.get(
        "REPRO_BENCH_CACHE_DIR", str(results_dir / "cache")
    )
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", min(2, os.cpu_count() or 1)))
    instance = ExperimentEngine(cache_dir=cache_dir or None, jobs=jobs)
    yield instance
    print(f"\n[experiment engine] {engine_summary(instance)}")


@pytest.fixture()
def record_table(results_dir):
    """Callable that persists and echoes a benchmark's output table."""

    def _record(name: str, table: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(table + "\n", encoding="utf-8")
        print(f"\n=== {name} ===\n{table}\n")

    return _record


def run_once(benchmark, func):
    """Run a scenario exactly once under pytest-benchmark's timer."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
