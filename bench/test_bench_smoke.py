"""Smoke test of the benchmark itself, at ~1/50 size.

Not part of tier-1 (``testpaths`` stays ``tests``); run it explicitly:

    python -m pytest bench -q
"""

from __future__ import annotations

import copy
import io
import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SCALE = 50


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


@pytest.fixture(scope="module")
def results(spec):
    """Two whole passes of the same tree at small size."""
    run.build()
    return [
        run.run_suite(scale=SCALE, repeats=2, spec=spec, log=io.StringIO())
        for _ in range(2)
    ]


def test_nothing_fails_and_traced_digest_equals_untraced(results):
    # check_operations holds every child of a workload — timed, traced,
    # serial points, mode ratios — to the first repeat's digest.
    for result in results:
        for name, entry in result["workloads"].items():
            assert entry["failures"] == [], name
            assert entry["attempted"] >= 2
        assert result["claim"] is None
        assert list(result)[-1] == "claim"


def test_counts_and_digests_repeat_exactly(results):
    assert run.exact_disagreements(*results) == []


def test_names_match_the_declared_set(results, spec):
    workload_names = [w["name"] for w in spec["workloads"]]
    assert list(results[0]["workloads"]) == workload_names == list(WORKLOADS)
    end_to_end = {m["name"] for m in spec["end_to_end"]} | {"failed_share"}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name, entry in results[0]["workloads"].items():
        assert set(entry["end_to_end"]) == end_to_end, name
        assert set(entry["per_layer"]) == per_layer, name
    for name in [*workload_names, *end_to_end, *per_layer]:
        assert NAME.fullmatch(name), name


def test_every_layer_is_measured_somewhere(results, spec):
    for metric in spec["per_layer"]:
        assert any(
            entry["per_layer"][metric["name"]] != 0
            for entry in results[0]["workloads"].values()
        ), metric["name"]


def test_spans_are_written_and_cover_the_run(results):
    for name, recipe in WORKLOADS.items():
        if recipe.kind != "run":
            continue
        spans = json.loads((run.WORK / f"{name}.spans.json").read_text())
        assert set(spans) == {"name", "start", "end", "parent"}
        assert len({len(column) for column in spans.values()}) == 1
        assert spans["name"].count("engine.run") == 1
        # Not 100 by construction: the root span's self time is left out.
        assert 50 < results[0]["workloads"][name]["per_layer"]["trace.accounted_pct"] < 100


def test_provenance_block(results):
    prov = results[0]["provenance"]
    for key in ("git_sha", "python", "numpy", "platform", "nproc",
                "loadavg_start", "loadavg_end", "wall_s"):
        assert key in prov


def test_contract_mode_prints_the_declared_metrics(spec, capsys):
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        code = run.main([
            "--workload", "oqfifo_n16_light", "--seed", "3", "--seconds", "0.1",
            "--trace", str(trace), "--scale", str(SCALE),
        ])
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 0 and line["correct"] and line["failed"] == 0
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_repro_env_is_scrubbed(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "hard")
    record = run.launch_child("oqfifo_n16_light", "timed", 1, SCALE)
    assert "error" not in record


# --------------------------------------------------------------------- #
# Injected faults must raise failed_share
# --------------------------------------------------------------------- #
def records(**op):
    base = {"id": "run", "digest": "d", "unstable": False,
            "slots_run": 100, "slots_asked": 100}
    return [
        {"kind": "timed", "ops": [dict(base)]},
        {"kind": "timed", "ops": [dict(base) | op]},
    ]


def test_clean_records_pass():
    assert run.check_operations("fig4_fifoms_n16", records(), {"run": "d"}) == (2, [])


@pytest.mark.parametrize("fault, golden, expect", [
    ({"digest": "other"}, None, "differs between repeats"),
    ({}, {"run": "pinned"}, "differs from golden"),
    ({"slots_run": 60}, None, "ran 60 of 100 slots"),
    ({"unstable": True, "slots_run": 60}, None, "ended unstable"),
])
def test_injected_fault_fails_the_operation(fault, golden, expect):
    attempted, failures = run.check_operations(
        "fig4_fifoms_n16", records(**fault), golden
    )
    assert attempted == 2 and failures
    assert all(expect in line for line in failures)


def test_dead_child_and_failed_point_count():
    dead = records() + [{"kind": "timed", "error": "exit 1: boom"}]
    assert len(run.check_operations("fig4_fifoms_n16", dead, None)[1]) == 1
    sweep = copy.deepcopy(records(unstable=True, slots_run=60))
    sweep[1]["ops"].append({"id": "tatra@0.9", "error": "FailedPoint"})
    attempted, failures = run.check_operations("fig4_sweep_pool", sweep, None)
    # Saturation is allowed on a sweep point; the failed point is not.
    assert attempted == 3 and len(failures) == 1
