#!/usr/bin/env python
"""Quickstart: simulate a 16x16 multicast VOQ switch running FIFOMS.

Runs one Bernoulli-multicast workload through the paper's four algorithms
and prints the four metrics of the evaluation section, side by side —
a miniature of the paper's Fig. 4 at a single load point.

Usage::

    python examples/quickstart.py [effective_load]
"""

from __future__ import annotations

import sys

from repro import run_simulation
from repro.analysis.loads import bernoulli_arrival_probability
from repro.report.ascii import format_table

__all__ = ["main"]

NUM_PORTS = 16
B = 0.2  # per-output destination probability (mean fanout ~3.3)
NUM_SLOTS = 20_000
ALGORITHMS = ("fifoms", "tatra", "islip", "oqfifo")


def main() -> None:
    load = float(sys.argv[1]) if len(sys.argv) > 1 else 0.6
    p = bernoulli_arrival_probability(NUM_PORTS, load, B)
    print(
        f"16x16 switch, Bernoulli multicast traffic: effective load "
        f"{load:.2f} (p={p:.3f}, b={B}), {NUM_SLOTS} slots\n"
    )
    rows = []
    for algorithm in ALGORITHMS:
        s = run_simulation(
            algorithm,
            NUM_PORTS,
            {"model": "bernoulli", "p": p, "b": B},
            num_slots=NUM_SLOTS,
            seed=2004,
        )
        rows.append(
            [
                algorithm,
                round(s.average_input_delay, 2),
                round(s.average_output_delay, 2),
                round(s.average_queue_size, 3),
                s.max_queue_size,
                "yes" if s.unstable else "no",
            ]
        )
    print(
        format_table(
            ["algorithm", "input delay", "output delay", "avg queue",
             "max queue", "unstable"],
            rows,
        )
    )
    print(
        "\nExpected shape (paper Fig. 4): FIFOMS tracks OQFIFO on delay and"
        "\nholds the smallest queues; iSLIP pays the multicast-splitting tax."
    )


if __name__ == "__main__":
    main()
