"""FIG8 — regenerate the paper's Fig. 8 (burst traffic, b = 0.5, Eon = 16).

Expected shape: the on/off correlation lowers everyone's saturation
point; FIFOMS beats TATRA on delay but not OQFIFO; iSLIP collapses; the
queue-space ranking keeps FIFOMS smallest.
"""

from __future__ import annotations

from conftest import sweep_and_report

LOADS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)


def test_fig8_bursty_multicast(capsys):
    result = sweep_and_report("fig8", capsys, loads=LOADS)
    # Bursts of mean fanout 8 multiply iSLIP's input work by 8: it must
    # fare far worse than FIFOMS everywhere (claim checked in detail by
    # the expectation lines).
    assert result.saturation_load("fifoms") != LOADS[0]
