"""ABL-ITER — iteration-cap ablation.

How much do the iterative rounds matter? FIFOMS and iSLIP capped at one
round vs run to convergence, on the Fig. 4 workload. Fig. 5 shows average
convergence needs only ~1-3 rounds, so a single-iteration scheduler loses
little at low load — but the cap also caps *throughput*: measured here,
1-iteration FIFOMS destabilizes at 0.85 effective load where the
converged scheduler cruises, which is why the convergence loop earns its
hardware.
"""

from __future__ import annotations

import math

from conftest import sweep_and_report


def _finite(values):
    return [v for v in values if math.isfinite(v)]


def test_ablation_iteration_caps(capsys):
    result = sweep_and_report("abl-iterations", capsys)
    rounds = result.series("rounds")
    # The capped variants must never exceed one productive round (values
    # at destabilized points are censored to inf and excluded).
    assert all(v <= 1.0 + 1e-9 for v in _finite(rounds["fifoms-1iter"]))
    assert all(v <= 1.0 + 1e-9 for v in _finite(rounds["islip-1iter"]))
    # Convergence must dominate the capped variant on delay at every
    # common stable load (more matches per slot can only help).
    full = result.series("output_delay")["fifoms"]
    capped = result.series("output_delay")["fifoms-1iter"]
    finite = [
        (f, c)
        for f, c in zip(full, capped)
        if math.isfinite(f) and math.isfinite(c)
    ]
    assert finite
    assert all(f <= c * 1.1 + 1e-9 for f, c in finite)
