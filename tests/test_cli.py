"""Tests for the command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "-a", "fifoms"])
        assert args.ports == 16
        assert args.traffic == "bernoulli"


class TestListCommand:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fifoms" in out and "tatra" in out
        assert "fig4" in out and "burst" in out

    def test_lists_the_body_each_default_resolves_to(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "  fifoms  vectorized" in lines
        assert "  siq-fifo  (one body)" in lines
        assert "  islip  (one body)" in lines
        assert "  tatra  (one body)" in lines

    @pytest.mark.parametrize("command", ["run", "profile"])
    def test_backend_help_names_the_default(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "default: the pairing's fast body" in text


class TestRunCommand:
    def test_table_output(self, capsys):
        code = main(
            ["run", "-a", "fifoms", "-n", "4", "--slots", "400", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "avg output delay" in out
        assert "fifoms" in out

    def test_json_output(self, capsys):
        code = main(
            [
                "run", "-a", "oqfifo", "-n", "4", "--slots", "300",
                "--traffic", "uniform", "--max-fanout", "2", "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["algorithm"] == "oqfifo"
        assert data["slots_run"] == 300

    def test_unknown_algorithm_exit_code(self, capsys):
        assert main(["run", "-a", "bogus", "--slots", "10"]) == 2
        assert "error:" in capsys.readouterr().err


class TestFigureCommand:
    def test_small_figure_run(self, capsys, tmp_path):
        csv_path = tmp_path / "fig5.csv"
        code = main(
            [
                "figure", "--id", "fig5", "--slots", "600", "--seed", "1",
                "--loads", "0.3", "0.5", "--workers", "1",
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Average convergence rounds" in out
        assert "fig5" in out
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("algorithm,")

    def test_unknown_figure(self, capsys):
        assert main(["figure", "--id", "fig99"]) == 2


class TestTraceCommands:
    def test_record_and_run(self, capsys, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert main(
            ["trace", "record", "--out", str(out), "-n", "4", "--slots", "200",
             "--seed", "2"]
        ) == 0
        assert out.exists()
        first = capsys.readouterr().out
        assert "packets over 200 slots" in first
        assert main(["trace", "run", "--file", str(out), "-a", "oqfifo"]) == 0
        run_out = capsys.readouterr().out
        assert "oqfifo" in run_out

    def test_run_missing_file_errors(self, capsys, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["trace", "run", "--file", str(tmp_path / "nope.jsonl"),
                  "-a", "fifoms"])


class TestVerifyCommand:
    def test_ok_algorithm(self, capsys):
        assert main(["verify", "-a", "oqfifo", "-n", "2", "--horizon", "1"]) == 0
        assert "[OK]" in capsys.readouterr().out

    def test_domain_guard_via_cli(self, capsys):
        assert main(["verify", "-a", "fifoms", "-n", "4", "--horizon", "4"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_violation_exits_1_and_names_the_checker(self, capsys):
        from repro.schedulers import registry
        from repro.switch.output_queue import OutputQueuedSwitch

        class Leaky(OutputQueuedSwitch):
            def total_backlog(self):
                return 0

        registry.register_switch_factory("leaky", lambda n, **kw: Leaky(n))
        try:
            code = main(["verify", "-a", "leaky", "-n", "2", "--horizon", "1"])
        finally:
            registry._REGISTRY.pop("leaky", None)
        assert code == 1
        out = capsys.readouterr().out
        assert "1 VIOLATIONS" in out
        assert "  conservation: slot 0: cell conservation broken" in out

    def test_unknown_algorithm_is_a_usage_error(self, capsys):
        assert main(["verify", "-a", "nope", "-n", "2", "--horizon", "1"]) == 2
        captured = capsys.readouterr()
        assert "error: unknown scheduler 'nope'" in captured.err
        assert "VIOLATIONS" not in captured.out + captured.err


class TestCampaignCommand:
    def test_small_campaign(self, capsys, tmp_path):
        store = tmp_path / "store"
        code = main(
            ["campaign", "run", str(store), "--figures", "fig5",
             "--slots", "800", "--seed", "1", "--workers", "2"]
        )
        assert code == 0
        assert "paper claims PASS" in capsys.readouterr().out
        text = (store / "REPORT.md").read_text()
        assert text.startswith("# Reproduction report")
        assert "Fig. 5" in text

    @pytest.mark.parametrize(
        "argv",
        [["campaign"], ["campaign", "--figures", "fig5", "--out", "R.md"]],
        ids=["bare", "legacy-flat-flags"],
    )
    def test_campaign_without_subcommand_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: repro-sim campaign" in capsys.readouterr().err


class TestRunTelemetryFlags:
    def test_trace_metrics_progress_smoke(self, capsys, tmp_path):
        """`run --trace --metrics --progress` — the CI observability smoke.

        The trace must be valid JSONL whose post-warmup delivered counts
        sum to the summary's throughput numerator, the metrics file must
        hold the registry snapshot, and heartbeats must go to stderr
        (stdout stays pure JSON).
        """
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        code = main(
            ["run", "-a", "fifoms", "-n", "8", "--slots", "2000",
             "--seed", "1", "--trace", str(trace), "--metrics", str(metrics),
             "--progress", "--json"]
        )
        assert code == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)

        records = [json.loads(l) for l in trace.read_text().splitlines()]
        assert len(records) == summary["slots_run"] == 2000
        assert [r["slot"] for r in records] == list(range(2000))
        delivered = sum(
            r["delivered"] for r in records
            if r["slot"] >= summary["warmup_slots"]
        )
        assert delivered == summary["cells_delivered"] > 0

        snapshot = json.loads(metrics.read_text())
        by_name = {rec["name"]: rec for rec in snapshot["metrics"]}
        assert by_name["sim.slots"]["value"] == 2000
        assert by_name["sim.slots"]["labels"] == {"algorithm": "fifoms"}
        assert "sim.rounds_per_slot" in by_name

        assert "[progress]" in captured.err
        assert "slots/s" in captured.err

    def test_trace_to_table_output(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        code = main(
            ["run", "-a", "islip", "-n", "4", "--slots", "300",
             "--trace", str(trace)]
        )
        assert code == 0
        assert len(trace.read_text().splitlines()) == 300
        # the status note goes to stderr, not into the table
        captured = capsys.readouterr()
        assert "300 slot records" in captured.err
        assert "avg output delay" in captured.out

    def test_extended_metrics_table(self, capsys):
        code = main(
            ["run", "-a", "fifoms", "-n", "4", "--slots", "600",
             "--seed", "2", "--extended"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "delay_p50" in out
        assert "delay_p99" in out
        assert "split_ratio" in out

    def test_extended_metrics_json(self, capsys):
        code = main(
            ["run", "-a", "fifoms", "-n", "4", "--slots", "600",
             "--seed", "2", "--extended", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert "delay_p50" in data["extra"]


class TestProfileCommand:
    def test_phase_table(self, capsys):
        code = main(
            ["profile", "-a", "fifoms", "-n", "4", "--slots", "2000",
             "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for phase in ("traffic_gen", "schedule", "stats", "invariants"):
            assert phase in out
        assert "us/slot" in out
        assert "slots/s" in out

    def test_unknown_algorithm(self, capsys):
        assert main(["profile", "-a", "bogus", "--slots", "10"]) == 2
        assert "error:" in capsys.readouterr().err


class TestLintCommand:
    def test_own_tree_is_clean_strict(self, capsys):
        import repro

        src_tree = Path(repro.__file__).resolve().parent
        assert main(["lint", "--strict", str(src_tree)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_default_target_is_package_tree(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "no findings" in out

    def test_broken_fixture_fails_with_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\n__all__ = []\nt = time.time()\n")
        assert main(["lint", str(tmp_path), "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["errors"] == 1
        assert data["findings"][0]["rule"] == "DET001"

    def test_extra_paths_option(self, capsys, tmp_path):
        clean = tmp_path / "extra"
        clean.mkdir()
        (clean / "ok.py").write_text("__all__ = []\n")
        import repro

        src_tree = Path(repro.__file__).resolve().parent
        code = main(["lint", str(src_tree), str(clean)])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_warnings_gate_only_in_strict(self, capsys, tmp_path):
        warn = tmp_path / "warn.py"
        warn.write_text("__all__ = []\nfor j in {1, 2}:\n    pass\n")
        assert main(["lint", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["lint", str(tmp_path), "--strict"]) == 1
        assert "DET002" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RNG001", "DET001", "STR003", "RACE001",
                        "KB003", "RNG005", "RNG006", "DET003"):
            assert rule_id in out

    def test_missing_path_exit_2(self, capsys):
        assert main(["lint", "/nonexistent/nowhere"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_paths_option_accepts_directories(self, capsys, tmp_path):
        nested = tmp_path / "extra" / "deep"
        nested.mkdir(parents=True)
        (nested / "bad.py").write_text("import random\n__all__ = []\n")
        # Overlapping roots must not double-report the same file.
        assert main(["lint", str(tmp_path), str(tmp_path / "extra")]) == 1
        out = capsys.readouterr().out
        assert out.count("RNG003") == 1
