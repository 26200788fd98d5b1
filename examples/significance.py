#!/usr/bin/env python
"""Is FIFOMS *significantly* better, or is it seed noise?

Short simulations are noisy; a single run per configuration (like a
single figure sweep) cannot distinguish a real 5% win from luck. This
example shows the replication machinery: five independent-seed replicas
per algorithm on the Fig. 4 workload at 0.7 load, Student-t confidence
intervals per metric, and Welch's t-test on every pairwise question a
reviewer would ask.

Usage::

    python examples/significance.py
"""

from __future__ import annotations

from repro.analysis.loads import bernoulli_arrival_probability
from repro.experiments.replication import compare, metric_over, run_replicated
from repro.report.ascii import format_table

__all__ = ["main"]

N = 16
LOAD = 0.7
SPEC = {
    "model": "bernoulli",
    "p": bernoulli_arrival_probability(N, LOAD, 0.2),
    "b": 0.2,
}
REPLICAS = 5
SLOTS = 15_000


def main() -> None:
    print(
        f"Fig. 4 workload at load {LOAD}, {REPLICAS} replicas x {SLOTS} "
        f"slots per algorithm\n"
    )
    reps = {
        alg: run_replicated(
            alg, N, SPEC, num_slots=SLOTS, replicas=REPLICAS, base_seed=42
        )
        for alg in ("fifoms", "tatra", "islip", "oqfifo")
    }
    rows = []
    for alg, summaries in reps.items():
        delay = metric_over(summaries, "output_delay")
        queue = metric_over(summaries, "avg_queue")
        rows.append([alg, str(delay), str(queue)])
    print(
        format_table(
            ["algorithm", "output delay (95% CI)", "avg queue (95% CI)"], rows
        )
    )

    print("\nPairwise Welch t-tests (output delay):")
    for a, b in (("fifoms", "tatra"), ("fifoms", "islip"), ("fifoms", "oqfifo")):
        t, p = compare(reps[a], reps[b], "output_delay")
        verdict = (
            f"{a} significantly smaller"
            if (t < 0 and p < 0.05)
            else f"{a} significantly larger"
            if (t > 0 and p < 0.05)
            else "no significant difference"
        )
        print(f"  {a} vs {b}: t={t:+.2f}, p={p:.2g} -> {verdict}")
    print(
        "\nExpected verdicts at this load: FIFOMS < TATRA and << iSLIP "
        "(significant), FIFOMS > OQFIFO (the OQ floor is real but small)."
    )


if __name__ == "__main__":
    main()
