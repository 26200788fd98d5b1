"""Perf-trajectory recorder and regression gate (``repro.obs.bench``).

Covers the ISSUE acceptance criterion: a benchmark run appends a
schema-valid record to ``BENCH_history.jsonl`` that ``repro-sim
bench-check`` accepts — and flags — correctly.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.obs.bench import (
    SCHEMA_VERSION,
    append_record,
    build_record,
    check_history,
    load_history,
    validate_record,
)


def fake_report(speedups: dict[str, float]) -> dict:
    """A ``run_kernel_benchmark``-shaped report with the given speedups."""
    results = {}
    for algorithm, speedup in speedups.items():
        results[algorithm] = {
            "object": {"seconds": 1.0, "slots_per_sec": 1000.0},
            "vectorized": {
                "seconds": 1.0 / speedup,
                "slots_per_sec": round(1000.0 * speedup, 1),
            },
            "speedup": speedup,
            "traffic": {"model": "bernoulli", "p": 1.0, "b": 0.9},
        }
    return {
        "benchmark": "kernel_backends",
        "measures": "switch.step() slot loop, pre-generated arrivals",
        "num_ports": 16,
        "num_slots": 3000,
        "rounds": 3,
        "seed": 2004,
        "results": results,
    }


def write_history(path, speedup_rows: list[dict[str, float]]) -> None:
    """Append one record per row of per-algorithm speedups."""
    for row in speedup_rows:
        append_record(path, build_record(fake_report(row)))


class TestRecord:
    def test_build_record_is_schema_valid(self):
        record = build_record(fake_report({"fifoms": 3.4, "tatra": 1.2}))
        validate_record(record)  # must not raise
        assert record["schema"] == SCHEMA_VERSION
        assert record["results"]["fifoms"] == {
            "object_slots_per_sec": 1000.0,
            "vectorized_slots_per_sec": 3400.0,
            "speedup": 3.4,
        }

    def test_build_record_stamps_provenance_and_utc_timestamp(self):
        record = build_record(fake_report({"fifoms": 3.0}))
        prov = record["provenance"]
        assert set(prov) == {"git_sha", "python", "numpy", "platform", "host"}
        assert all(isinstance(v, str) and v for v in prov.values())
        # ISO-8601 with an explicit UTC offset.
        assert record["timestamp"].endswith("+00:00")

    def test_validate_rejects_bad_records(self):
        good = build_record(fake_report({"fifoms": 3.0}))
        with pytest.raises(ValueError, match="missing keys"):
            validate_record({k: v for k, v in good.items() if k != "results"})
        with pytest.raises(ValueError, match="schema"):
            validate_record({**good, "schema": 99})
        with pytest.raises(ValueError, match="no results"):
            validate_record({**good, "results": {}})
        bad_entry = {**good["results"]["fifoms"], "speedup": -1.0}
        with pytest.raises(ValueError, match="positive numeric"):
            validate_record({**good, "results": {"fifoms": bad_entry}})
        with pytest.raises(ValueError, match="must be an object"):
            validate_record(["not", "a", "dict"])

    def test_append_refuses_invalid_record(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        with pytest.raises(ValueError):
            append_record(path, {"schema": SCHEMA_VERSION})
        assert not path.exists()


class TestHistoryIO:
    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        write_history(path, [{"fifoms": 3.3}, {"fifoms": 3.5}])
        records = load_history(path)
        assert [r["results"]["fifoms"]["speedup"] for r in records] == [3.3, 3.5]

    def test_load_skips_corrupt_and_blank_lines(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        write_history(path, [{"fifoms": 3.3}])
        with path.open("a", encoding="utf-8") as fh:
            fh.write("\n{ truncated by a crashed run\n")
            fh.write(json.dumps({"schema": SCHEMA_VERSION}) + "\n")
        write_history(path, [{"fifoms": 3.4}])
        speedups = [
            r["results"]["fifoms"]["speedup"] for r in load_history(path)
        ]
        assert speedups == [3.3, 3.4]

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_history(tmp_path / "absent.jsonl")


class TestCheckHistory:
    def test_single_record_is_no_baseline(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        write_history(path, [{"fifoms": 3.3}])
        verdict = check_history(path)
        assert not verdict.regressed
        assert verdict.checks["fifoms"]["status"] == "no-baseline"
        assert "no baseline yet" in verdict.describe()

    def test_steady_history_is_ok(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        write_history(
            path, [{"fifoms": 3.3, "tatra": 1.1}] * 4 + [{"fifoms": 3.25, "tatra": 1.1}]
        )
        verdict = check_history(path, tolerance=0.10)
        assert not verdict.regressed
        assert verdict.checks["fifoms"]["status"] == "ok"
        assert verdict.checks["fifoms"]["baseline_speedup"] == pytest.approx(3.3)
        assert "RESULT: ok" in verdict.describe()

    def test_speedup_drop_beyond_tolerance_regresses(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        write_history(path, [{"fifoms": 3.3}] * 3 + [{"fifoms": 2.0}])
        verdict = check_history(path, tolerance=0.10)
        assert verdict.regressed
        assert verdict.checks["fifoms"]["status"] == "regressed"
        assert "REGRESSED" in verdict.describe()
        assert "RESULT: regression detected" in verdict.describe()

    def test_median_baseline_shrugs_off_one_outlier(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        # One freakishly fast run must not raise the bar for the rest.
        write_history(
            path,
            [{"fifoms": 3.3}, {"fifoms": 9.9}, {"fifoms": 3.3}, {"fifoms": 3.2}],
        )
        verdict = check_history(path, tolerance=0.10)
        assert verdict.checks["fifoms"]["baseline_speedup"] == pytest.approx(3.3)
        assert not verdict.regressed

    def test_window_limits_the_baseline(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        # Ancient fast records fall outside window=2; only the recent
        # (slower) pair forms the baseline, so 2.0 passes.
        write_history(
            path,
            [{"fifoms": 9.0}] * 5 + [{"fifoms": 2.1}, {"fifoms": 2.1}, {"fifoms": 2.0}],
        )
        verdict = check_history(path, tolerance=0.10, window=2)
        assert verdict.checks["fifoms"]["samples"] == 2
        assert verdict.checks["fifoms"]["baseline_speedup"] == pytest.approx(2.1)
        assert not verdict.regressed

    def test_new_algorithm_in_latest_is_no_baseline(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        write_history(path, [{"fifoms": 3.3}, {"fifoms": 3.3, "tatra": 1.1}])
        verdict = check_history(path)
        assert verdict.checks["tatra"]["status"] == "no-baseline"
        assert verdict.checks["fifoms"]["status"] == "ok"

    def test_parameter_validation(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        write_history(path, [{"fifoms": 3.3}])
        with pytest.raises(ValueError, match="tolerance"):
            check_history(path, tolerance=1.0)
        with pytest.raises(ValueError, match="window"):
            check_history(path, window=0)

    def test_to_dict_is_json_ready(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        write_history(path, [{"fifoms": 3.3}, {"fifoms": 3.3}])
        verdict = check_history(path)
        payload = json.loads(json.dumps(verdict.to_dict()))
        assert payload["regressed"] is False
        assert payload["records"] == 2
        assert payload["checks"]["fifoms"]["status"] == "ok"


class TestBenchCheckCli:
    def test_ok_history_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "hist.jsonl"
        write_history(path, [{"fifoms": 3.3}, {"fifoms": 3.3}])
        rc = cli_main(["bench-check", "--history", str(path)])
        assert rc == 0
        assert "RESULT: ok" in capsys.readouterr().out

    def test_regressed_history_exits_one(self, tmp_path, capsys):
        path = tmp_path / "hist.jsonl"
        write_history(path, [{"fifoms": 3.3}] * 3 + [{"fifoms": 2.0}])
        rc = cli_main(["bench-check", "--history", str(path)])
        assert rc == 1
        assert "RESULT: regression detected" in capsys.readouterr().out

    def test_missing_history_exits_two(self, tmp_path, capsys):
        rc = cli_main(["bench-check", "--history", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "bench history not found" in capsys.readouterr().err

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "hist.jsonl"
        write_history(path, [{"fifoms": 3.3}] * 3 + [{"fifoms": 2.0}])
        rc = cli_main(["bench-check", "--history", str(path), "--json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressed"] is True
        assert payload["checks"]["fifoms"]["status"] == "regressed"

    def test_benchmark_appends_schema_valid_record(self, tmp_path, capsys):
        """End-to-end: the real benchmark CLI appends a record the gate
        accepts (tiny grid so the test stays fast)."""
        import importlib.util
        from pathlib import Path

        bench_path = (
            Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "bench_kernel_backends.py"
        )
        spec = importlib.util.spec_from_file_location("_bench_kernel", bench_path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)

        path = tmp_path / "BENCH_history.jsonl"
        rc = bench.main(
            ["--ports", "4", "--slots", "40", "--rounds", "1",
             "--history", str(path)]
        )
        assert rc == 0
        records = load_history(path)
        assert len(records) == 1
        validate_record(records[0])
        # The grid (and with it every history record) covers exactly the
        # registry pairings with two bodies to compare — the equivalence
        # grid's own classification; a single-bodied pairing (TATRA among
        # them) has no ratio to record.
        from repro.kernel.equivalence import dual_pairings

        assert set(records[0]["results"]) == set(dual_pairings())
        assert "tatra" not in records[0]["results"]
        verdict = check_history(path)
        assert not verdict.regressed  # first record: no-baseline everywhere
