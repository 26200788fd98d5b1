"""CIOQ — how much fabric speedup buys back the OQ delay (extension).

Sweeps internal speedup S = 1, 2, 3 for the CIOQ switch (iSLIP matchings)
against the two poles: the pure input-queued iSLIP switch (S = 1 by
construction) and the speedup-N OQFIFO benchmark, on 85%-loaded uniform
unicast traffic. The classic theory says S = 2 suffices to emulate output
queueing for unicast; the table shows the delay gap collapsing.
"""

from __future__ import annotations

from conftest import BENCH_SEED, BENCH_SLOTS

from repro.report.ascii import format_table
from repro.sim.runner import run_simulation

SPEC = {"model": "uniform", "p": 0.85, "max_fanout": 1}
N = 16


def test_cioq_speedup_closes_oq_gap(report):
    rows = []
    for label, alg, kw in (
        ("islip (S=1)", "islip", {}),
        ("cioq S=1", "cioq-islip", {"speedup": 1}),
        ("cioq S=2", "cioq-islip", {"speedup": 2}),
        ("cioq S=3", "cioq-islip", {"speedup": 3}),
        ("oqfifo (S=N)", "oqfifo", {}),
    ):
        s = run_simulation(
            alg, N, SPEC, num_slots=BENCH_SLOTS, seed=BENCH_SEED, **kw
        )
        rows.append(
            [
                label,
                round(s.average_output_delay, 3),
                round(s.average_queue_size, 3),
                s.max_queue_size,
                "SAT" if s.unstable else "ok",
            ]
        )
    report(
        "\n"
        + format_table(
            ["configuration", "output delay", "avg input queue", "max queue", "status"],
            rows,
            title=f"[cioq] uniform unicast at 0.85 load, {N}x{N}, {BENCH_SLOTS} slots",
        )
    )
    delays = {r[0]: r[1] for r in rows}
    # Speedup can only help, and S=2 must land within 35% of OQFIFO.
    assert delays["cioq S=2"] <= delays["cioq S=1"] + 1e-9
    assert delays["cioq S=2"] <= delays["oqfifo (S=N)"] * 1.35 + 0.5
