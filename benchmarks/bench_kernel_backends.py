"""PERF — kernel backend throughput: object vs vectorized, same results.

Times the switch's per-slot step loop (arrival preprocessing, scheduling
rounds, transmission, buffer reclamation) once per kernel backend on
identical pre-generated arrival streams, and reports slots/second per
scheduler. Traffic generation and statistics are *excluded* — they are
byte-for-byte shared between backends and would only dilute the number
this benchmark exists to measure: the cost of the queue-state
representation itself.

The grid covers **every** registry pairing that has two bodies to
compare — ``dual_pairings()`` of ``repro.kernel.equivalence``: the
multicast VOQ family (cell objects vs ``SwitchState``). The thirteen
single-bodied pairings (iSLIP, PIM, 2DRR, SERENA, MaxWeight, CIOQ, CICQ,
ESLIP, OQFIFO, TATRA, WBA, SIQ-FIFO) are absent because ``backend``
selects nothing for them — their twin tables live in docs/kernel.md as
the record of why one body was kept. Each pairing runs at a hand-tuned
operating point — load, fanout, and port count — chosen as the regime
its second representation exists for: saturated heavy multicast.

The headline is the FIFOMS ratio at the paper's 16×16 size under
saturated heavy multicast (mean fanout ~14) — the regime where the
object model allocates one address cell per destination per packet while
the vectorized kernel moves integer pids and bitmasks.

Both backends produce bit-identical results (``repro.kernel.equivalence``
proves it), so this is a pure representation benchmark: same work, two
state layouts.

Run standalone for the committed JSON artifact::

    PYTHONPATH=src python benchmarks/bench_kernel_backends.py --json BENCH_kernel.json

or under pytest (``--bench-json PATH`` writes the same artifact)::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernel_backends.py --bench-json BENCH_kernel.json
"""

from __future__ import annotations

import argparse
import json
from typing import Any

from repro.obs.profiler import clock_ns
from repro.schedulers.registry import make_switch
from repro.sim.runner import build_traffic
from repro.utils.rng import RngStreams

#: One operating point per dual pairing: the traffic spec and the port
#: count its ratio is quoted at. FIFOMS gets the paper's 16×16 size at
#: saturated heavy multicast — the hot-path regime the vectorized kernel
#: exists for.
KERNEL_GRID: dict[str, dict[str, Any]] = {
    "fifoms": {"ports": 16, "spec": {"model": "bernoulli", "p": 1.0, "b": 0.9}},
    "fifoms-prio": {
        "ports": 16,
        "spec": {"model": "bernoulli", "p": 0.9, "b": 0.7},
    },
    "greedy-mcast": {
        "ports": 16,
        "spec": {"model": "bernoulli", "p": 0.9, "b": 0.7},
    },
}

#: Smallest acceptable FIFOMS vectorized/object ratio at N=16 (the
#: headline claim; measured ~4.9× on the reference container since the
#: PR 17 int-mask rounds, ~3.6× before).
FIFOMS_MIN_SPEEDUP = 3.5


def _time_once(
    algorithm: str,
    backend: str,
    *,
    num_ports: int,
    num_slots: int,
    seed: int,
) -> float:
    """Wall-clock seconds for one stepped run of the slot loop.

    The identical seeded arrival stream is regenerated *outside* the
    timed region and a fresh switch stepped through it.
    """
    spec = dict(KERNEL_GRID[algorithm]["spec"])
    streams = RngStreams(seed)
    traffic = build_traffic(dict(spec), num_ports, rng=streams.get("traffic"))
    arrivals = [traffic.next_slot() for _ in range(num_slots)]
    switch = make_switch(
        algorithm, num_ports, rng=streams.get("scheduler"), backend=backend
    )
    t0 = clock_ns()
    for slot, lanes in enumerate(arrivals):
        switch.step(lanes, slot)
    return (clock_ns() - t0) / 1e9


def _time_pair(
    algorithm: str,
    *,
    num_ports: int,
    num_slots: int,
    rounds: int,
    seed: int,
) -> dict[str, float]:
    """Best-of-``rounds`` seconds per backend, rounds *interleaved*.

    Alternating object/vectorized rounds (instead of timing one backend's
    rounds back to back) cancels slow host drift — warmup, frequency
    scaling, background load — that would otherwise systematically favor
    whichever backend happened to run later. The per-backend minimum is
    the honest estimate: interference only ever slows a run down.
    """
    best = {"object": float("inf"), "vectorized": float("inf")}
    for _ in range(rounds):
        for backend in ("object", "vectorized"):
            seconds = _time_once(
                algorithm,
                backend,
                num_ports=num_ports,
                num_slots=num_slots,
                seed=seed,
            )
            if seconds < best[backend]:
                best[backend] = seconds
    return best


def run_kernel_benchmark(
    *,
    num_ports: int | None = None,
    num_slots: int = 3000,
    rounds: int = 3,
    seed: int = 2004,
) -> dict[str, Any]:
    """Time every (scheduler, backend) pair; return the JSON-ready report.

    ``num_ports=None`` (the default) runs each pairing at its grid-tuned
    port count; an explicit value overrides the whole grid (used by the
    tiny smoke runs in the test suite).
    """
    results: dict[str, Any] = {}
    for algorithm, entry in KERNEL_GRID.items():
        ports = num_ports if num_ports is not None else int(entry["ports"])
        timings = _time_pair(
            algorithm,
            num_ports=ports,
            num_slots=num_slots,
            rounds=rounds,
            seed=seed,
        )
        per_backend: dict[str, Any] = {}
        for backend in ("object", "vectorized"):
            seconds = timings[backend]
            per_backend[backend] = {
                "seconds": round(seconds, 6),
                "slots_per_sec": round(num_slots / seconds, 1),
            }
        per_backend["speedup"] = round(
            per_backend["vectorized"]["slots_per_sec"]
            / per_backend["object"]["slots_per_sec"],
            3,
        )
        per_backend["ports"] = ports
        per_backend["traffic"] = dict(entry["spec"])
        results[algorithm] = per_backend
    return {
        "benchmark": "kernel_backends",
        "measures": "switch.step() slot loop, pre-generated arrivals",
        "num_ports": num_ports,
        "num_slots": num_slots,
        "rounds": rounds,
        "seed": seed,
        "results": results,
    }


def format_report(report: dict[str, Any]) -> str:
    """Human-readable table of one benchmark report."""
    lines = [
        f"kernel backends @ {report['num_slots']} slots, "
        f"best of {report['rounds']}"
        + (
            f", N={report['num_ports']} (grid override)"
            if report.get("num_ports") is not None
            else ", per-pairing N"
        ),
        f"{'scheduler':<14} {'N':>3} {'object sl/s':>12} "
        f"{'vector sl/s':>12} {'speedup':>8}",
    ]
    for algorithm, r in report["results"].items():
        lines.append(
            f"{algorithm:<14} {r['ports']:>3} "
            f"{r['object']['slots_per_sec']:>12.1f} "
            f"{r['vectorized']['slots_per_sec']:>12.1f} {r['speedup']:>7.2f}x"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run the grid, print the table, optionally emit JSON."""
    parser = argparse.ArgumentParser(
        description="Benchmark kernel backends (object vs vectorized)."
    )
    parser.add_argument("--json", metavar="PATH", help="write results as JSON")
    parser.add_argument(
        "--ports", type=int, default=None,
        help="override every pairing's grid-tuned port count",
    )
    parser.add_argument("--slots", type=int, default=3000)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument(
        "--history", metavar="PATH", default="BENCH_history.jsonl",
        help="perf-trajectory JSONL to append a provenance-stamped record "
        "to (checked by 'repro-sim bench-check')",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="skip the perf-trajectory append",
    )
    args = parser.parse_args(argv)
    report = run_kernel_benchmark(
        num_ports=args.ports,
        num_slots=args.slots,
        rounds=args.rounds,
        seed=args.seed,
    )
    print(format_report(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    if not args.no_history:
        from repro.obs.bench import append_record, build_record

        append_record(args.history, build_record(report))
        print(f"appended perf-trajectory record to {args.history}")
    if args.ports is None:
        for algorithm, r in report["results"].items():
            if r["speedup"] < 1.0:
                print(
                    f"WARNING: {algorithm} speedup {r['speedup']}x below "
                    f"parity at its grid operating point"
                )
        fifoms_speedup = report["results"]["fifoms"]["speedup"]
        if fifoms_speedup < FIFOMS_MIN_SPEEDUP:
            print(
                f"WARNING: fifoms speedup {fifoms_speedup}x below the "
                f"{FIFOMS_MIN_SPEEDUP}x reference"
            )
    return 0


def test_grid_covers_every_vectorized_pairing():
    """The grid is exactly the registry's dual pairings (registry −
    single-bodied, the equivalence grid's classification).

    A newly registered dual pairing must get a tuned operating point
    here (and a collapsed one must leave), or this guard
    fails — the benchmark cannot silently under-cover the registry.
    """
    from repro.kernel.equivalence import dual_pairings

    assert set(KERNEL_GRID) == set(dual_pairings())


def test_vectorized_kernel_speedup(request, capsys):
    """Vectorized FIFOMS must clearly outrun the object model at N=16.

    The committed ``BENCH_kernel.json`` records ~4.9×; the in-test floor
    is softer (2.5×) so a loaded CI host cannot flake the suite. With
    ``--bench-json PATH`` the full report is also written to PATH.
    """
    report = run_kernel_benchmark(num_slots=2000, rounds=3)
    with capsys.disabled():
        print("\n" + format_report(report))
    json_path = request.config.getoption("--bench-json", default=None)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    assert report["results"]["fifoms"]["speedup"] >= 2.5


if __name__ == "__main__":
    raise SystemExit(main())
