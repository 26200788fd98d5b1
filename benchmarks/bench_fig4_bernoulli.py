"""FIG4 — regenerate the paper's Fig. 4.

16x16 switch, Bernoulli multicast traffic with b = 0.2, effective load
swept toward 1. Panels: input/output oriented delay, average and maximum
queue size, for FIFOMS / TATRA / iSLIP / OQFIFO.

Expected shape: FIFOMS tracks OQFIFO on both delays and holds the
smallest queues; TATRA destabilizes past ~0.8; iSLIP pays the
multicast-splitting tax throughout.
"""

from __future__ import annotations

from conftest import sweep_and_report

LOADS = (0.3, 0.5, 0.7, 0.85, 0.95)


def test_fig4_bernoulli_b02(capsys):
    result = sweep_and_report("fig4", capsys, loads=LOADS)
    # Hard floor under the soft claim check: FIFOMS must survive every
    # swept load and deliver everything it accepted.
    assert result.saturation_load("fifoms") is None
