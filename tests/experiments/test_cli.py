"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCLI:
    def test_run_command_outputs_summary(self, capsys):
        exit_code = main(
            [
                "run",
                "--protocol",
                "orthrus",
                "--replicas",
                "8",
                "--duration",
                "12",
                "--warmup",
                "3",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "ktps" in captured
        assert "stage breakdown" in captured
        assert "global_ordering" in captured

    def test_run_command_csv_output(self, capsys):
        exit_code = main(
            [
                "run",
                "--protocol",
                "iss",
                "--replicas",
                "8",
                "--duration",
                "10",
                "--warmup",
                "2",
                "--csv",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        header = captured.splitlines()[0]
        assert header.startswith("label,")
        assert "iss" in captured

    def test_workload_command_reports_mix(self, capsys):
        exit_code = main(
            [
                "workload",
                "--transactions",
                "400",
                "--accounts",
                "500",
                "--payment-fraction",
                "0.5",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "payments" in captured
        assert "contract calls" in captured

    def test_figure_command_smoke_scale(self, capsys):
        exit_code = main(["figure", "fig8", "--scale", "smoke"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "faulty replicas" in captured

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--protocol", "nonsense"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_version_matches_package_metadata(self):
        """pyproject.toml and repro.__version__ must not drift apart."""
        import re
        from pathlib import Path

        import repro

        pyproject = (
            Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
        ).read_text()
        declared = re.search(r'^version = "([^"]+)"', pyproject, re.MULTILINE)
        assert declared is not None
        assert declared.group(1) == repro.__version__

    def test_serve_rejects_bad_peers(self, capsys):
        config = '{"replica_id": 0, "peers": ["not-an-endpoint"]}'
        exit_code = main(["serve", "--config", config])
        assert exit_code == 2
        assert "host:port" in capsys.readouterr().err

    def test_loadgen_rejects_bad_peers(self, capsys):
        exit_code = main(["loadgen", "--peers", "nope"])
        assert exit_code == 2
        assert "host:port" in capsys.readouterr().err

    def test_live_config_errors_exit_cleanly(self, capsys):
        """Bad live-cluster configuration is a message, not a traceback."""
        exit_code = main(["cluster", "--replicas", "3"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "at least 4 replicas" in captured.err
        assert "Traceback" not in captured.err

    def test_keyboard_interrupt_exits_quietly(self, capsys, monkeypatch):
        """Ctrl-C during a long run must not spew a traceback."""
        import repro.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_command_workload", interrupted)
        exit_code = main(["workload", "--transactions", "1"])
        captured = capsys.readouterr()
        assert exit_code == 130
        assert "interrupted" in captured.err
        assert "Traceback" not in captured.err


class TestChaosCLI:
    def test_chaos_rejects_malformed_fault_plan(self, capsys):
        exit_code = main(["chaos", "--fault-plan", "{not json"])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err

    def test_chaos_rejects_unknown_plan_keys(self, capsys):
        exit_code = main(["chaos", "--fault-plan", '{"crashs": {"0": 1}}'])
        assert exit_code == 2
        assert "unknown fault plan keys" in capsys.readouterr().err

    def test_chaos_rejects_bad_pair_syntax(self, capsys):
        exit_code = main(["chaos", "--crash", "zero:1"])
        assert exit_code == 2
        assert "REPLICA:VALUE" in capsys.readouterr().err

    def test_chaos_rejects_too_many_faults(self, capsys):
        exit_code = main(
            ["chaos", "--replicas", "4", "--crash", "0:1", "--byzantine", "1"]
        )
        assert exit_code == 2
        assert "tolerates" in capsys.readouterr().err

    def test_cluster_rejects_malformed_fault_plan(self, capsys):
        exit_code = main(["cluster", "--fault-plan", '{"restarts": {"0": 5}}'])
        assert exit_code == 2
        assert "never crashes" in capsys.readouterr().err

    def test_run_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            main(["run", "--backend", "quantum"])
