"""ABL-TIE — tie-breaking policy ablation.

The paper specifies random tie-breaking among equal-smallest time stamps.
This bench races random against lowest-input (deterministic, unfair) and
round-robin pointers on the Fig. 4 workload. Expected: delays are nearly
indistinguishable in aggregate (the timestamp does the real work); the
policies differ mainly in fairness, which aggregate delay barely sees.
"""

from __future__ import annotations

from conftest import sweep_and_report


def test_ablation_tiebreak_policies(capsys):
    result = sweep_and_report("abl-tiebreak", capsys)
    series = result.series("output_delay")
    for load_idx in range(len(result.loads)):
        vals = [series[a][load_idx] for a in result.algorithms]
        finite = [v for v in vals if v == v and v != float("inf")]
        if len(finite) >= 2:
            assert max(finite) <= min(finite) * 1.5 + 0.5, (
                f"tie-break policies diverged at load "
                f"{result.loads[load_idx]}: {dict(zip(result.algorithms, vals))}"
            )
