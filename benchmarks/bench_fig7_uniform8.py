"""FIG7 — regenerate the paper's Fig. 7 (uniform traffic, maxFanout = 8).

Expected shape: FIFOMS is the best input-queued scheduler on delay and
even beats OQFIFO on buffer occupancy; TATRA fares better than in Fig. 4
(more fanout = more Tetris moves).
"""

from __future__ import annotations

from conftest import sweep_and_report

LOADS = (0.3, 0.5, 0.7, 0.85, 0.95)


def test_fig7_uniform_maxfanout8(capsys):
    result = sweep_and_report("fig7", capsys, loads=LOADS)
    assert result.saturation_load("fifoms") is None
