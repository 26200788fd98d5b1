#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py``: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload) with both medians and
quartiles, the change of B against its base A, the bound from
BENCHMARK.json, and a verdict:

``better`` / ``worse``
    B's median moved by more than the bound.
``same``
    Within the bound.
``unresolved``
    The run-to-run spread (quartile distance over median, of either
    side) is wider than the bound and the two sets of runs overlap:
    the data cannot tell, and that is not the same as unchanged.

A performance PR pastes this table into its description; it names one
metric and one workload from it as its claim.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

#: Reported beside the three bounded metrics of BENCHMARK.json. It cannot
#: live there (its healthy value is 0 and its bound is "any rise"); the
#: contract carries it as ``failed`` / ``attempted`` instead.
FAILED_SHARE = {"name": "failed_share", "unit": "ratio", "better": "lower", "bound": 0.0}


def bounds() -> dict[str, tuple[str, float]]:
    """metric -> (better, bound) from BENCHMARK.json, plus failed_share."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        m["name"]: (m["better"], m["bound"])
        for m in spec["end_to_end"] + [FAILED_SHARE]
    }


def judge(
    a: dict[str, Any], b: dict[str, Any], better: str, bound: float
) -> tuple[float, str]:
    """Change of B against base A (as measured, not by direction) and
    the verdict. With a zero median the change is absolute."""
    lower = better == "lower"
    base = a["median"]
    change = (b["median"] - base) / base if base else b["median"] - base
    worse_by = change if lower else -change
    b_wins = b["max"] < a["min"] if lower else b["min"] > a["max"]
    a_wins = a["max"] < b["min"] if lower else a["min"] > b["max"]
    spread = max(
        (d["q3"] - d["q1"]) / d["median"] if d["median"] else 0.0 for d in (a, b)
    )
    if spread > bound > 0 and not (a_wins or b_wins):
        return change, "unresolved"
    if worse_by > bound:
        return change, "worse"
    if worse_by < -bound:
        return change, "better"
    return change, "same"


def rows(a: dict[str, Any], b: dict[str, Any]) -> list[dict[str, Any]]:
    """The comparison table, one row per (metric, workload) both files hold."""
    out = []
    for metric, (better, bound) in bounds().items():
        for workload, entry in a["workloads"].items():
            da = entry["end_to_end"].get(metric)
            db = b["workloads"].get(workload, {}).get("end_to_end", {}).get(metric)
            if da is None or db is None:
                continue
            change, verdict = judge(da, db, better, bound)
            out.append({
                "metric": metric,
                "workload": workload,
                "a": da,
                "b": db,
                "delta_pct": 100.0 * change,
                "bound": bound,
                "verdict": verdict,
            })
    return out


def fmt(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1e4 else f"{value:.4g}"


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
    print(f"A = {argv[1]} ({a['provenance']['git_sha'][:12]}, seed {a['seed']})")
    print(f"B = {argv[2]} ({b['provenance']['git_sha'][:12]}, seed {b['seed']})")
    print("| metric | workload | A median [q1, q3] | B median [q1, q3] "
          "| B vs A | bound | verdict |")
    print("|---|---|---|---|---|---|---|")
    table = rows(a, b)
    for row in table:
        cells = [
            f"{fmt(d['median'])} [{fmt(d['q1'])}, {fmt(d['q3'])}]"
            for d in (row["a"], row["b"])
        ]
        print(f"| {row['metric']} | {row['workload']} | {cells[0]} | {cells[1]} "
              f"| {row['delta_pct']:+.1f}% of {fmt(row['a']['median'])} "
              f"| {100 * row['bound']:.0f}% | {row['verdict']} |")
    return 1 if any(row["verdict"] == "worse" for row in table) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
