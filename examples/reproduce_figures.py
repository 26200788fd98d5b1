#!/usr/bin/env python
"""Regenerate every evaluation figure of the paper (Figs. 4-8).

By default runs a reduced-length sweep (30k slots per point, the full
load grid) that finishes in minutes; set ``REPRO_FULL=1`` for the paper's
10^6 slots per point. Results print as one table per metric panel, with
the paper's qualitative claims checked PASS/FAIL underneath, and are also
written as CSV next to this script.

Usage::

    python examples/reproduce_figures.py [fig4 fig5 ...]
    REPRO_FULL=1 python examples/reproduce_figures.py fig4
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from repro.experiments import check_expectations, get_figure, run_figure
from repro.obs.profiler import clock_ns
from repro.report.export import write_csv

__all__ = ["main"]

DEFAULT_SLOTS = 30_000
PAPER_SLOTS = 1_000_000


def main() -> None:
    figure_ids = sys.argv[1:] or ["fig4", "fig5", "fig6", "fig7", "fig8"]
    num_slots = PAPER_SLOTS if os.environ.get("REPRO_FULL") else DEFAULT_SLOTS
    out_dir = Path(__file__).resolve().parent
    for fid in figure_ids:
        spec = get_figure(fid)
        print(f"\n{'=' * 72}\nRunning {spec.title}  ({num_slots} slots/point)\n{'=' * 72}")
        t0 = clock_ns()
        result = run_figure(spec, num_slots=num_slots, seed=2004)
        elapsed = (clock_ns() - t0) / 1e9
        print(result.to_text(charts=True))
        for expectation in check_expectations(result):
            print(expectation)
        csv_path = write_csv(out_dir / f"{fid}_results.csv", result.all_summaries())
        print(f"({elapsed:.0f}s; wrote {csv_path})")


if __name__ == "__main__":
    main()
