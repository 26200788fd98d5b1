"""SCALE — port-count scaling of FIFOMS vs iSLIP (extension).

Fixed 0.7 effective load and mean fanout 4 while N grows 8 → 48. The
quantities the paper's §IV leaves open:

* average convergence rounds — bounded by N in the worst case, but the
  average should grow like O(log N) or slower (contention per output is
  load-, not size-, driven);
* delay — should be nearly size-independent at fixed load for FIFOMS
  (OQFIFO's formula says delay depends on rho and barely on N).
"""

from __future__ import annotations

import math

from conftest import BENCH_SEED

from repro.experiments.scaling import run_scaling
from repro.report.ascii import format_table

SIZES = (8, 16, 32, 48)
ALGOS = ("fifoms", "islip", "oqfifo")


def test_scaling_in_port_count(report):
    points = run_scaling(
        ALGOS, SIZES, load=0.7, mean_fanout=4.0,
        num_slots=4_000, seed=BENCH_SEED,
    )
    by = {(p.algorithm, p.num_ports): p for p in points}
    rows = []
    for n in SIZES:
        rows.append(
            [
                n,
                round(by[("fifoms", n)].output_delay, 3),
                round(by[("fifoms", n)].rounds, 3),
                round(by[("islip", n)].output_delay, 3),
                round(by[("islip", n)].rounds, 3),
                round(by[("oqfifo", n)].output_delay, 3),
            ]
        )
    report(
        "\n"
        + format_table(
            ["N", "fifoms delay", "fifoms rounds", "islip delay",
             "islip rounds", "oqfifo delay"],
            rows,
            title="[scale] fixed load 0.7, mean fanout 4, 4000 slots",
        )
    )
    # Average rounds grow sublinearly: far below N, at most ~2·log2(N).
    for n in SIZES:
        for alg in ("fifoms", "islip"):
            r = by[(alg, n)].rounds
            assert r < 2 * math.log2(n) + 2, f"{alg} rounds {r} at N={n}"
    # FIFOMS delay is stable in N (within 2x across a 6x size range).
    delays = [by[("fifoms", n)].output_delay for n in SIZES]
    assert max(delays) <= min(delays) * 2.0
