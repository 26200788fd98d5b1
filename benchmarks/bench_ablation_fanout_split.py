"""ABL-SPLIT — fanout-splitting ablation.

The paper's §VI: "Fanout splitting is necessary for an algorithm to
achieve high throughput under multicast traffic." This bench runs FIFOMS
with splitting disabled (a packet transmits only when ALL its remaining
destinations are free simultaneously) against standard FIFOMS on the
Fig. 4 workload and shows the no-split variant saturating far earlier.
"""

from __future__ import annotations

from conftest import sweep_and_report


def test_ablation_fanout_splitting(capsys):
    result = sweep_and_report("abl-split", capsys)
    split_sat = result.saturation_load("fifoms")
    nosplit_sat = result.saturation_load("fifoms-nosplit")
    # Splitting FIFOMS survives the whole grid; all-or-nothing dies early.
    assert split_sat is None
    assert nosplit_sat is not None and nosplit_sat <= 0.7, (
        f"no-split FIFOMS should saturate by 0.7, got {nosplit_sat}"
    )
