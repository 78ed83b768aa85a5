"""The ``repro bench`` harness: report schema, regression gate, CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench import BenchResult, check_regressions, load_report, write_report
from repro.bench.report import BENCH_SCHEMA_VERSION, build_report, format_results
from repro.bench.suites import run_suite
from repro.cli import main


def _result(name="digest", value=100.0, higher=True, unit="ops/s"):
    return BenchResult(name=name, unit=unit, value=value, higher_is_better=higher)


class TestReport:
    def test_build_report_shape_and_speedups(self):
        results = [
            _result("fast_thing", 200.0),
            _result("wallclock", 2.0, higher=False, unit="seconds"),
        ]
        report = build_report(
            results,
            pr=5,
            suite="quick",
            baselines={"fast_thing": 100.0, "wallclock": 4.0},
        )
        assert report["schema_version"] == BENCH_SCHEMA_VERSION
        assert report["pr"] == 5
        benchmarks = report["benchmarks"]
        assert benchmarks["fast_thing"]["speedup"] == 2.0
        assert benchmarks["fast_thing"]["baseline_pre_pr"] == 100.0
        # Lower-is-better speedups are oriented so > 1.0 is still better.
        assert benchmarks["wallclock"]["speedup"] == 2.0

    def test_round_trip_through_disk(self, tmp_path):
        report = build_report([_result()], pr=5, suite="quick")
        path = tmp_path / "BENCH_test.json"
        write_report(report, path)
        assert load_report(path) == report

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 99}), encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported bench schema"):
            load_report(path)

    def test_format_results_lists_every_benchmark(self):
        table = format_results([_result("alpha"), _result("beta")])
        assert "alpha" in table and "beta" in table


class TestRegressionGate:
    def _committed(self, value=100.0, higher=True, name="digest"):
        return build_report(
            [_result(name=name, value=value, higher=higher)], pr=5, suite="quick"
        )

    def _check_on_committing_host(self, results, committed):
        """The gate as the host that committed the report would run it.

        ``build_report`` and ``check_regressions`` each measure the host's
        speed unless told it; the host can slow by more than the margin these
        tests leave between the two measurements, so the tests that are not
        about normalisation pin the score to the committed one.
        """
        return check_regressions(
            results,
            committed,
            tolerance=0.30,
            current_speed_score=committed["host"]["speed_score"],
        )

    def test_within_tolerance_passes(self):
        committed = self._committed(100.0)
        assert self._check_on_committing_host([_result(value=80.0)], committed) == []

    def test_regression_beyond_tolerance_fails(self):
        committed = self._committed(100.0)
        failures = self._check_on_committing_host([_result(value=60.0)], committed)
        assert len(failures) == 1 and "digest" in failures[0]

    def test_lower_is_better_direction(self):
        committed = self._committed(1.0, higher=False)
        slower = [_result(value=2.0, higher=False)]
        faster = [_result(value=0.5, higher=False)]
        assert self._check_on_committing_host(slower, committed)
        assert self._check_on_committing_host(faster, committed) == []

    def test_new_benchmarks_are_ignored(self):
        committed = self._committed(100.0, name="other")
        assert self._check_on_committing_host([_result()], committed) == []

    def test_host_speed_normalisation(self):
        """A slower checking host is held to a proportionally lower bar."""
        committed = self._committed(100.0)
        committed["host"]["speed_score"] = 1000.0
        # Half-speed host measuring half the ops/s: no regression.
        assert (
            check_regressions(
                [_result(value=50.0)],
                committed,
                tolerance=0.30,
                current_speed_score=500.0,
            )
            == []
        )
        # Half-speed host measuring a quarter of the ops/s: real regression.
        assert check_regressions(
            [_result(value=25.0)],
            committed,
            tolerance=0.30,
            current_speed_score=500.0,
        )
        # Lower-is-better scales inversely: a half-speed host may take twice
        # as long without failing.
        slow_host_wallclock = self._committed(1.0, higher=False)
        slow_host_wallclock["host"]["speed_score"] = 1000.0
        assert (
            check_regressions(
                [_result(value=2.0, higher=False)],
                slow_host_wallclock,
                tolerance=0.30,
                current_speed_score=500.0,
            )
            == []
        )

    def test_reports_without_speed_score_compare_absolutely(self):
        committed = self._committed(100.0)
        committed["host"].pop("speed_score", None)
        failures = check_regressions(
            [_result(value=60.0)], committed, tolerance=0.30, current_speed_score=1.0
        )
        assert len(failures) == 1


class TestSuites:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark suite"):
            run_suite("nope")

    def test_committed_bench_file_is_loadable_and_complete(self):
        """BENCH_5.json at the repo root must satisfy the acceptance shape."""
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "BENCH_5.json"
        report = load_report(path)
        benchmarks = report["benchmarks"]
        assert len(benchmarks) >= 6
        for name in (
            "digest_block_64tx",
            "codec_roundtrip_mix",
            "ladon_release_10k",
            "sim_event_throughput",
            "fig3_small_wallclock",
            "live_smoke_tps",
        ):
            assert name in benchmarks, name
        # The three headline micro benchmarks must document >= 2x speedups
        # against the pre-PR baselines recorded in the same file.
        for name in ("digest_block_64tx", "codec_roundtrip_mix", "ladon_release_10k"):
            assert benchmarks[name]["speedup"] >= 2.0, (name, benchmarks[name])
        # The end-to-end numbers must have improved as well.
        for name in ("fig3_small_wallclock", "live_smoke_tps"):
            assert benchmarks[name]["speedup"] > 1.0, (name, benchmarks[name])


class TestBenchCLI:
    def test_bad_check_path_fails_before_running_benchmarks(self, capsys):
        import repro.bench.suites as suites

        def explode():  # pragma: no cover - must never run
            raise AssertionError("suite ran despite invalid --check path")

        original = suites._QUICK
        suites._QUICK = (explode,)
        try:
            code = main(["bench", "--suite", "quick", "--check", "/no/such/file.json"])
        finally:
            suites._QUICK = original
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_baselines_path_fails_before_running_benchmarks(self):
        import repro.bench.suites as suites

        def explode():  # pragma: no cover - must never run
            raise AssertionError("suite ran despite invalid --baselines path")

        original = suites._QUICK
        suites._QUICK = (explode,)
        try:
            code = main(["bench", "--suite", "quick", "--baselines", "/nope.json"])
        finally:
            suites._QUICK = original
        assert code == 2

    def test_bench_check_gate(self, tmp_path, capsys):
        committed = tmp_path / "BENCH_x.json"
        # A committed report with absurdly high numbers: the fresh run must
        # regress against it and exit 1.
        write_report(
            build_report(
                [
                    BenchResult(
                        name="sim_event_throughput",
                        unit="events/s",
                        value=1e12,
                        higher_is_better=True,
                    )
                ],
                pr=5,
                suite="quick",
            ),
            committed,
        )
        # And one the fresh run trivially beats.
        passing = tmp_path / "BENCH_low.json"
        write_report(
            build_report(
                [
                    BenchResult(
                        name="sim_event_throughput",
                        unit="events/s",
                        value=1.0,
                        higher_is_better=True,
                    )
                ],
                pr=5,
                suite="quick",
            ),
            passing,
        )
        # Patch the quick suite down to the single fastest benchmark so the
        # CLI test stays cheap.
        import repro.bench.suites as suites

        original = suites._QUICK
        suites._QUICK = (suites.bench_sim_events,)
        try:
            assert main(["bench", "--suite", "quick", "--check", str(passing)]) == 0
            assert main(["bench", "--suite", "quick", "--check", str(committed)]) == 1
        finally:
            suites._QUICK = original
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err

    def test_bench_writes_output_with_baselines(self, tmp_path):
        baselines = tmp_path / "pre.json"
        baselines.write_text(
            json.dumps({"sim_event_throughput": 1.0}), encoding="utf-8"
        )
        output = tmp_path / "BENCH_out.json"
        import repro.bench.suites as suites

        original = suites._QUICK
        suites._QUICK = (suites.bench_sim_events,)
        try:
            code = main(
                [
                    "bench",
                    "--suite",
                    "quick",
                    "--output",
                    str(output),
                    "--baselines",
                    str(baselines),
                ]
            )
        finally:
            suites._QUICK = original
        assert code == 0
        report = load_report(output)
        entry = report["benchmarks"]["sim_event_throughput"]
        assert entry["baseline_pre_pr"] == 1.0
        assert entry["speedup"] > 1.0
