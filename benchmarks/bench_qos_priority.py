"""QOS — strict-priority FIFOMS under load (extension).

A 30/70 premium/best-effort mix on the Fig. 4 workload at three loads.
The strict-priority switch must (a) keep the premium class's delay
essentially load-independent (it preempts everything), (b) charge the
difference to the best-effort class, and (c) carry the same total traffic
as classless FIFOMS — priority re-divides delay, it does not create
capacity.
"""

from __future__ import annotations

import numpy as np
from conftest import BENCH_SEED, BENCH_SLOTS

from repro.analysis.loads import bernoulli_arrival_probability
from repro.qos.switch import PriorityMulticastVOQSwitch
from repro.qos.traffic import PriorityTagger
from repro.report.ascii import format_table
from repro.sim.runner import run_simulation
from repro.traffic.bernoulli import BernoulliMulticastTraffic

N = 16
B = 0.2
LOADS = (0.5, 0.7, 0.85)
SHARES = (0.3, 0.7)


def _per_class_delays(load: float, slots: int):
    p = bernoulli_arrival_probability(N, load, B)
    base = BernoulliMulticastTraffic(N, p=p, b=B, rng=BENCH_SEED)
    tagger = PriorityTagger(base, SHARES, rng=BENCH_SEED + 1)
    sw = PriorityMulticastVOQSwitch(N, 2, rng=np.random.default_rng(BENCH_SEED + 2))
    warmup = slots // 2
    sums, counts = [0.0, 0.0], [0, 0]
    for slot in range(slots):
        result = sw.step(tagger.next_slot(), slot)
        if slot < warmup:
            continue
        for d in result.deliveries:
            sums[d.packet.priority] += d.delay
            counts[d.packet.priority] += 1
    return tuple(
        sums[c] / counts[c] if counts[c] else float("nan") for c in (0, 1)
    )


def test_qos_strict_priority_isolation(report):
    rows = []
    for load in LOADS:
        hi, lo = _per_class_delays(load, BENCH_SLOTS)
        classless = run_simulation(
            "fifoms",
            N,
            {"model": "bernoulli",
             "p": bernoulli_arrival_probability(N, load, B), "b": B},
            num_slots=BENCH_SLOTS,
            seed=BENCH_SEED,
        )
        rows.append(
            [
                round(load, 2),
                round(hi, 2),
                round(lo, 2),
                round(classless.average_output_delay, 2),
            ]
        )
    report(
        "\n"
        + format_table(
            ["load", "premium delay", "best-effort delay", "classless fifoms"],
            rows,
            title=(
                f"[qos] strict-priority FIFOMS, {int(SHARES[0] * 100)}% premium, "
                f"{N}x{N}, {BENCH_SLOTS} slots"
            ),
        )
    )
    # Premium delay must stay low and grow far slower than best effort.
    premiums = [r[1] for r in rows]
    efforts = [r[2] for r in rows]
    assert all(p <= e for p, e in zip(premiums, efforts))
    assert premiums[-1] <= premiums[0] * 3
    assert efforts[-1] > premiums[-1]
