"""PERF — simulator engine throughput (slots/second).

Times the reference object-model stack against the vectorized kernel
backend (the struct-of-arrays hot path) on identical workloads, at the
paper's N = 16
and at larger port counts where the vectorized scheduling rounds pay
off. These benches use pytest-benchmark's statistics properly (multiple
rounds) since the callable is cheap and deterministic in cost.
"""

from __future__ import annotations

import pytest

from repro.sim.runner import run_simulation

SLOTS = 2_000


def _spec(n: int) -> dict:
    # Moderate load: p chosen for ~0.6 effective load at every N
    # (mean fanout ~4 regardless of N).
    return {"model": "bernoulli", "p": 0.15, "b": 4.0 / n}


def _run(algorithm: str, n: int, backend: str, **kw):
    return run_simulation(
        algorithm, n, _spec(n), num_slots=SLOTS, seed=1, backend=backend, **kw
    )


@pytest.mark.parametrize("n", [16, 32])
def test_reference_fifoms_slots_per_sec(benchmark, n):
    summary = benchmark.pedantic(
        lambda: _run("fifoms", n, "object"), rounds=3, iterations=1
    )
    assert summary.slots_run == SLOTS
    benchmark.extra_info["slots_per_sec"] = SLOTS / benchmark.stats["mean"]


@pytest.mark.parametrize("n", [16, 32, 64])
def test_vectorized_fifoms_slots_per_sec(benchmark, n):
    summary = benchmark.pedantic(
        lambda: _run("fifoms", n, "vectorized"), rounds=3, iterations=1
    )
    assert summary.slots_run == SLOTS
    benchmark.extra_info["slots_per_sec"] = SLOTS / benchmark.stats["mean"]


def test_islip_slots_per_sec(benchmark):
    # iSLIP has one body: ``backend`` selects nothing, so one row.
    benchmark.pedantic(
        lambda: _run("islip", 16, "object"), rounds=3, iterations=1
    )
    benchmark.extra_info["slots_per_sec"] = SLOTS / benchmark.stats["mean"]


def test_tatra_slots_per_sec(benchmark):
    # TATRA has one body too; benched here so the table keeps all three
    # of the paper's algorithms.
    benchmark.pedantic(
        lambda: _run("tatra", 16, "object"), rounds=3, iterations=1
    )
    benchmark.extra_info["slots_per_sec"] = SLOTS / benchmark.stats["mean"]


def test_chunked_fifoms_slots_per_sec(benchmark):
    # slot_chunk draws K arrival vectors ahead of the slots that
    # consume them; identical results.
    summary = benchmark.pedantic(
        lambda: _run("fifoms", 32, "vectorized", slot_chunk=64),
        rounds=3,
        iterations=1,
    )
    assert summary.slots_run == SLOTS
    benchmark.extra_info["slots_per_sec"] = SLOTS / benchmark.stats["mean"]


def test_vectorized_backend_beats_reference_at_scale(benchmark, report):
    """At N = 64 the vectorized rounds should clearly outrun the object
    model (at N = 16 they are roughly at parity — see the table)."""
    from repro.obs.profiler import clock_ns

    n = 64

    def timed(run) -> float:
        t0 = clock_ns()
        run()
        return (clock_ns() - t0) / 1e9

    fast = timed(lambda: _run("fifoms", n, "vectorized"))
    ref = timed(lambda: _run("fifoms", n, "object"))
    speedup = ref / fast
    report(
        f"\nN=64 engine speed: reference {SLOTS / ref:,.0f} slots/s, "
        f"vectorized {SLOTS / fast:,.0f} slots/s (speedup {speedup:.1f}x)"
    )
    benchmark.pedantic(
        lambda: _run("fifoms", n, "vectorized"), rounds=1, iterations=1
    )
    assert speedup > 1.5, f"vectorized backend only {speedup:.2f}x at N=64"


def test_reference_fifoms_phase_breakdown(benchmark, report):
    """Where does the reference engine spend the slot cycle?

    Profiles one run under the benchmark timer and prints the per-phase
    wall-clock table (traffic_gen / schedule / stats / invariants) next
    to the slots/s number — the map to read before any optimisation work.
    """
    from repro.obs import Telemetry
    from repro.report import format_phase_table

    n = 16
    tel_box: list[Telemetry] = []

    def run():
        tel = Telemetry(profile=True)
        tel_box.append(tel)
        return run_simulation(
            "fifoms", n, _spec(n), num_slots=SLOTS, seed=1, telemetry=tel
        )

    summary = benchmark.pedantic(run, rounds=1, iterations=1)
    assert summary.slots_run == SLOTS
    prof = tel_box[-1].profiler.report(SLOTS)
    report(
        "\n"
        + format_phase_table(
            prof, title=f"reference fifoms N={n} phase breakdown"
        )
    )
    benchmark.extra_info["schedule_share"] = prof["phases"]["schedule"]["share"]
