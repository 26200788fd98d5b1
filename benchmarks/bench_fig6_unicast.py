"""FIG6 — regenerate the paper's Fig. 6 (pure unicast, maxFanout = 1).

Expected shape: FIFOMS matches/surpasses iSLIP on delay and buffers;
TATRA hits the Karol ~0.586 HOL-blocking wall; OQFIFO remains the floor.
"""

from __future__ import annotations

from conftest import sweep_and_report

LOADS = (0.3, 0.5, 0.58, 0.7, 0.85, 0.95)


def test_fig6_pure_unicast(capsys):
    result = sweep_and_report("fig6", capsys, loads=LOADS)
    sat = result.saturation_load("tatra")
    assert sat is not None and sat <= 0.85, (
        f"TATRA should hit the HOL-blocking wall near 0.586, got {sat}"
    )
    assert result.saturation_load("fifoms") is None
