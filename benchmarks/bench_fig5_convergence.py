"""FIG5 — regenerate the paper's Fig. 5.

Average convergence rounds of FIFOMS vs iSLIP on the Fig. 4 workload.
Expected shape: both flat in load, similar to each other, far below N=16.
"""

from __future__ import annotations

from conftest import sweep_and_report

LOADS = (0.3, 0.5, 0.7, 0.85)


def test_fig5_convergence_rounds(capsys):
    result = sweep_and_report("fig5", capsys, loads=LOADS)
    rounds = result.series("rounds")
    # The §IV.C bound, measured: nobody ever needs more than N rounds.
    for series in rounds.values():
        assert all(v <= 16 for v in series if v == v)  # NaN-safe
