"""SAT — measured saturation points of every paper algorithm.

Bisection over the offered load on two workloads:

* pure unicast (Fig. 6 regime) — SIQ architectures must hit the Karol
  wall near 0.62 (N=16), VOQ architectures run to ~1;
* Bernoulli multicast b = 0.2 (Fig. 4 regime) — TATRA's wall appears
  around 0.8 (the paper's reading of Fig. 4), FIFOMS reaches ~1.

This turns the paper's eyeballed "becomes unstable beyond X" statements
into measured numbers with an explicit ± tolerance.
"""

from __future__ import annotations

from conftest import BENCH_SEED

from repro.analysis.loads import bernoulli_arrival_probability
from repro.analysis.queueing import siq_saturation_load
from repro.analysis.saturation import find_saturation
from repro.report.ascii import format_table

SLOTS = 5_000
TOL = 0.04


def _unicast(load: float) -> dict:
    return {"model": "uniform", "p": load, "max_fanout": 1}


def _mcast(load: float) -> dict:
    return {
        "model": "bernoulli",
        "p": bernoulli_arrival_probability(16, load, 0.2),
        "b": 0.2,
    }


def test_saturation_points(report):
    rows = []
    for alg, traffic, label in (
        ("siq-fifo", _unicast, "unicast"),
        ("tatra", _unicast, "unicast"),
        ("fifoms", _unicast, "unicast"),
        ("tatra", _mcast, "multicast b=0.2"),
        ("fifoms", _mcast, "multicast b=0.2"),
    ):
        r = find_saturation(
            alg, traffic, lo=0.2, hi=0.97, tol=TOL,
            num_slots=SLOTS, seed=BENCH_SEED,
        )
        rows.append(
            [alg, label, round(r.estimate, 3), round(r.uncertainty, 3), r.probes]
        )
    report(
        "\n"
        + format_table(
            ["algorithm", "workload", "saturation", "±", "probes"],
            rows,
            title=(
                f"[sat] measured throughput walls (16x16, {SLOTS} slots/probe, "
                f"Karol-16 = {siq_saturation_load(16):.3f})"
            ),
        )
    )
    by = {(r[0], r[1]): r[2] for r in rows}
    karol = siq_saturation_load(16)
    assert abs(by[("siq-fifo", "unicast")] - karol) < 0.1
    assert abs(by[("tatra", "unicast")] - karol) < 0.12
    assert by[("fifoms", "unicast")] > 0.9
    assert by[("fifoms", "multicast b=0.2")] > 0.9
    # The paper's Fig. 4 reading: TATRA dies beyond ~0.8 under b=0.2.
    assert 0.65 < by[("tatra", "multicast b=0.2")] < 0.95
