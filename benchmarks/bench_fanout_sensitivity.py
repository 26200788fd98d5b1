"""FANOUT — the multicast advantage as a function of mean fanout.

Sweeps Bernoulli mean fanout 1.5 → 8 at constant effective load and
prints the iSLIP/FIFOMS delay-ratio heatmap: the cost of copy-splitting
should grow roughly linearly in fanout (every copy is another cell the
input must serialize), while FIFOMS rides the crossbar's native fanout.
Also checks the paper's §V.B observation that TATRA improves as fanout
grows.
"""

from __future__ import annotations

from conftest import BENCH_SEED, BENCH_SLOTS

from repro.experiments.fanout import run_fanout_sweep
from repro.report.heatmap import render_heatmap

FANOUTS = (1.5, 2.0, 4.0, 8.0)
LOADS = (0.4, 0.7)


def test_fanout_sensitivity(report):
    result = run_fanout_sweep(
        fanouts=FANOUTS,
        loads=LOADS,
        num_slots=min(BENCH_SLOTS, 6000),
        seed=BENCH_SEED,
    )
    ratio = result.advantage_grid("output_delay")
    report(
        "\n"
        + render_heatmap(
            ratio,
            row_labels=[f"f={f}" for f in FANOUTS],
            col_labels=[f"load {l}" for l in LOADS],
            title="[fanout] iSLIP delay / FIFOMS delay (copy-splitting tax)",
            ascii_only=True,
        )
    )
    fifoms = result.metric_grid("fifoms", "output_delay")
    report(
        render_heatmap(
            fifoms,
            row_labels=[f"f={f}" for f in FANOUTS],
            col_labels=[f"load {l}" for l in LOADS],
            title="[fanout] FIFOMS delay (slots)",
            ascii_only=True,
        )
    )
    # The copy-splitting tax grows with fanout at every load.
    for li in range(len(LOADS)):
        col = ratio[:, li]
        assert col[-1] > col[0], f"tax did not grow with fanout at load {LOADS[li]}"
        assert col[-1] >= 2.0  # at fanout 8 iSLIP pays at least 2x
    # FIFOMS itself stays within a factor ~2 across the fanout range.
    for li in range(len(LOADS)):
        col = fifoms[:, li]
        assert col.max() <= col.min() * 2.5
