"""Equivalence harness: reference vs production, bit for bit.

The production kernel (``vectorized``: :class:`~repro.kernel.state.SwitchState`
and the schedulers' ``schedule_state``) is only admissible because it is
*indistinguishable* from the reference model of PAPER.md
(:mod:`repro.verify.reference`, run as the ``object`` kernel), which
shares no code with it. This module is the executable form of that claim
for every pairing that holds two representations of its queue state: it
runs the same (scheduler, traffic, seed) case once on the reference and
once on production, records a digest of every
:class:`~repro.switch.base.SlotResult` as the slots stream by, and
requires

1. the per-slot digest streams to be identical — same deliveries (by
   cross-run packet identity), same rounds, same per-round grant counts,
   same splits/reclamations/drops in every single slot;
2. the final :class:`~repro.stats.summary.SimulationSummary` dictionaries
   to be identical (NaN-aware: an unstable run's NaN averages must be NaN
   on both sides); and
3. for the multicast VOQ switch, the final ``state_arrays()`` snapshots —
   HOL timestamp matrix, occupancy, liveness, fanout counters — to match
   exactly; and
4. the telemetry registries of the two (telemetry-enabled) runs to be
   identical — the ``sim.*`` series *and* the kernel-seam ``kernel.*``
   counters harvested via
   :meth:`~repro.kernel.base.KernelBackend.harvest_slot_stats`.

Cross-run packet identity is ``(input_port, arrival_slot)``: packet ids
come from a process-global counter, so the second run's ids are offset
from the first even though the traffic streams are identical.

The default grid is generated from the registry (:func:`classify_registry`):
every *dual* pairing — one whose switch really builds a second
representation for ``backend="vectorized"``, i.e. the pairings on the
multicast VOQ switch — runs under Bernoulli and bursty traffic, plus
one fault-injection scenario, all at 8 ports. Single-bodied pairings
(one body whatever ``backend`` says, so nothing to compare) are listed
by name and held by the golden pins of
``tests/test_single_body_golden.py`` instead. Run it directly (CI does,
on every push)::

    PYTHONPATH=src python -m repro.kernel.equivalence --ports 8 --slots 4000

This module is deliberately *not* imported from ``repro.kernel`` — it
pulls in the whole sim stack, which the kernel package must not depend on.
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass
from typing import Any

from repro.errors import EquivalenceError
from repro.packet import Packet
from repro.schedulers.registry import available_schedulers, make_switch
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.runner import build_traffic
from repro.stats.summary import SimulationSummary
from repro.switch.base import SlotResult
from repro.traffic.base import TrafficModel
from repro.traffic.trace import TraceTraffic, record_trace
from repro.utils.bitsets import iter_bits
from repro.utils.rng import RngStreams
from repro.verify.exhaustive import traces

__all__ = [
    "EquivalenceCase",
    "EquivalenceReport",
    "RecordingSwitch",
    "slot_digest",
    "run_one_backend",
    "run_case",
    "default_grid",
    "classify_registry",
    "single_bodied_pairings",
    "dual_pairings",
    "run_grid",
    "PARITY_FIELDS",
    "run_pair",
    "diverging_traces",
    "compare_summaries",
    "main",
]


def slot_digest(result: SlotResult) -> tuple:
    """Hashable digest of one slot's observable behaviour.

    Deliveries and drops are keyed by ``(input_port, arrival_slot)`` —
    stable across runs — and sorted so that digest equality means
    set-equality of the slot's events, not accidental ordering.
    """
    deliveries = sorted(
        (packet.input_port, packet.arrival_slot, j, result.slot)
        for packet, mask in result.rows
        for j in iter_bits(mask)
    )
    dropped = sorted(
        (p.input_port, p.arrival_slot, p.destinations)
        for p in result.dropped_packets
    )
    return (
        result.slot,
        result.rounds,
        result.requests_made,
        result.round_grants,
        result.splits,
        result.reclaimed,
        result.grants_lost,
        tuple(deliveries),
        tuple(dropped),
    )


class RecordingSwitch:
    """Transparent proxy that captures a digest of every stepped slot.

    Everything except :meth:`step` forwards to the wrapped switch — both
    reads and writes, so the engine's ``switch.fault_injector = ...``
    assignment lands on the real switch.
    """

    def __init__(self, inner: Any) -> None:
        """Wrap ``inner`` and start with an empty digest log."""
        self.__dict__["_inner"] = inner
        self.__dict__["digests"] = []

    def step(self, arrivals: Any, slot: int) -> SlotResult:
        """Step the wrapped switch and record the slot's digest."""
        result = self.__dict__["_inner"].step(arrivals, slot)
        self.__dict__["digests"].append(slot_digest(result))
        return result

    def __getattr__(self, name: str) -> Any:
        """Forward attribute reads to the wrapped switch."""
        return getattr(self.__dict__["_inner"], name)

    def __setattr__(self, name: str, value: Any) -> None:
        """Forward attribute writes to the wrapped switch."""
        setattr(self.__dict__["_inner"], name, value)


@dataclass(frozen=True, slots=True)
class EquivalenceCase:
    """One (scheduler, traffic, fault) point of the equivalence grid."""

    #: Registry name of the switch pairing (must support both backends).
    algorithm: str
    #: Traffic spec dict as accepted by :func:`repro.sim.runner.build_traffic`.
    traffic: dict[str, Any]
    #: Fault scenario name from :data:`repro.faults.FAULT_SCENARIOS`, or None.
    fault: str | None = None
    #: Root seed for both runs of the case.
    seed: int = 12061

    @property
    def label(self) -> str:
        """Human-readable case name for reports and failures."""
        fault = f"+{self.fault}" if self.fault else ""
        return f"{self.algorithm}/{self.traffic['model']}{fault}"


@dataclass(frozen=True, slots=True)
class EquivalenceReport:
    """Outcome of one case: what was compared and whether it matched."""

    case: EquivalenceCase
    slots_compared: int
    summaries_match: bool
    digests_match: bool
    state_match: bool
    telemetry_match: bool

    @property
    def ok(self) -> bool:
        """True when every comparison level matched."""
        return (
            self.summaries_match
            and self.digests_match
            and self.state_match
            and self.telemetry_match
        )


def run_one_backend(
    case: EquivalenceCase, num_ports: int, num_slots: int, backend: str
) -> tuple[list[tuple], dict[str, Any], Any, dict[str, Any]]:
    """Run one backend of a case; return (digests, summary dict, state,
    metrics registry dict).

    Mirrors :func:`repro.sim.runner.run_simulation` wiring, but wraps the
    switch in a :class:`RecordingSwitch` so per-slot digests are captured
    — the runner offers no seam for that. The run is telemetry-enabled
    (registry only — no profiling, which records wall-clock and could
    never match across runs) so the kernel-seam counters are part of the
    equivalence claim, not just the schedules.
    """
    streams = RngStreams(case.seed)
    traffic = build_traffic(dict(case.traffic), num_ports, rng=streams.get("traffic"))
    switch = make_switch(
        case.algorithm, num_ports, rng=streams.get("scheduler"), backend=backend
    )
    recorder = RecordingSwitch(switch)
    injector = None
    if case.fault is not None:
        from repro.faults.scenarios import build_fault_injector

        injector = build_fault_injector(
            case.fault, num_ports=num_ports, num_slots=num_slots, rng=streams
        )
    cfg = SimulationConfig(
        num_slots=num_slots,
        warmup_fraction=0.5,
        stability_window=max(100, num_slots // 100),
    )
    from repro.obs.telemetry import Telemetry

    telemetry = Telemetry()
    engine = SimulationEngine(
        recorder, traffic, cfg, seed=case.seed,
        algorithm_name=case.algorithm, faults=injector,
        telemetry=telemetry,
    )
    summary = engine.run().to_dict()
    # The summary's telemetry section is part of the run output but not
    # of the equivalence claim proper (it's compared separately below),
    # so strip it before the summaries-match comparison.
    summary.pop("telemetry", None)
    state = switch.state_arrays() if hasattr(switch, "state_arrays") else None
    return recorder.digests, summary, state, telemetry.registry.to_dict()


def _state_equal(a: Any, b: Any) -> bool:
    """NaN/array-aware deep equality for ``state_arrays()`` snapshots."""
    import numpy as np

    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_state_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_state_equal(x, y) for x, y in zip(a, b))
    return a == b


def _first_digest_divergence(
    ref: list[tuple], prod: list[tuple]
) -> int | None:
    """Index of the first differing slot digest, or None when identical."""
    if ref == prod:
        return None
    for k, (x, y) in enumerate(zip(ref, prod)):
        if x != y:
            return k
    return min(len(ref), len(prod))


def run_case(
    case: EquivalenceCase, *, num_ports: int = 8, num_slots: int = 4000
) -> EquivalenceReport:
    """Run one case on the reference and on production; compare every level.

    Raises :class:`~repro.errors.EquivalenceError` on the first mismatch,
    with the slot index of the first digest divergence when there is one.
    """
    ref_digests, ref_summary, ref_state, ref_metrics = run_one_backend(
        case, num_ports, num_slots, "object"
    )
    prod_digests, prod_summary, prod_state, prod_metrics = run_one_backend(
        case, num_ports, num_slots, "vectorized"
    )
    # json round-trip makes NaN compare equal (both serialize to "NaN").
    summaries_match = json.dumps(ref_summary, sort_keys=True) == json.dumps(
        prod_summary, sort_keys=True
    )
    divergence = _first_digest_divergence(ref_digests, prod_digests)
    state_match = _state_equal(ref_state, prod_state)
    telemetry_match = json.dumps(ref_metrics, sort_keys=True) == json.dumps(
        prod_metrics, sort_keys=True
    )
    report = EquivalenceReport(
        case=case,
        slots_compared=len(ref_digests),
        summaries_match=summaries_match,
        digests_match=divergence is None,
        state_match=state_match,
        telemetry_match=telemetry_match,
    )
    if not report.ok:
        detail = []
        if divergence is not None:
            detail.append(f"first digest divergence at slot {divergence}")
        if not summaries_match:
            detail.append("summary dicts differ")
        if not state_match:
            detail.append("final state_arrays differ")
        if not telemetry_match:
            detail.append("metrics registries differ")
        raise EquivalenceError(
            f"production diverges from the reference for {case.label}: "
            + "; ".join(detail)
        )
    return report


def classify_registry() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Sort every registry pairing by what ``backend="vectorized"`` builds.

    Returns ``(single_bodied, dual)``:

    * *single-bodied* — ``switch.backend`` is not ``"vectorized"``: the
      switch holds one representation of its queue state and the name
      selected nothing, so there is no second body to compare (golden
      pins hold these instead);
    * *dual* — the switch really runs the second representation. These
      are the grid.

    The grid, the kernel benchmark's coverage guard and the tests all
    read this one classification rather than keeping lists of names.
    """
    single: list[str] = []
    dual: list[str] = []
    for name in available_schedulers():
        switch = make_switch(name, 4, backend="vectorized")
        (dual if switch.backend == "vectorized" else single).append(name)
    return tuple(single), tuple(dual)


def single_bodied_pairings() -> tuple[str, ...]:
    """Registry pairings with one body whatever ``backend`` says."""
    return classify_registry()[0]


def dual_pairings() -> tuple[str, ...]:
    """Registry pairings with two bodies to compare: the grid's subject
    (registry − single-bodied)."""
    return classify_registry()[1]


def default_grid() -> list[EquivalenceCase]:
    """The CI grid, generated from the registry: every dual pairing
    (:func:`dual_pairings`) × two traffic models, plus one
    fault-injection case.

    Loads are chosen so every run is stable for the full slot count at
    N=4 and N=8 — an unstable early stop would silently shrink the
    number of compared slots. The strict-priority pairing gets
    class-tagged traffic so both service classes carry cells.
    Single-bodied pairings are excluded: they have no second body to
    compare.
    """
    bernoulli = {"model": "bernoulli", "p": 0.3, "b": 0.25}
    burst = {"model": "burst", "e_on": 4.0, "e_off": 16.0, "b": 0.3}
    cases = []
    for name in dual_pairings():
        pair: tuple[dict[str, Any], dict[str, Any]] = (bernoulli, burst)
        if name == "fifoms-prio":
            pair = tuple(
                dict(spec, class_shares=[0.5, 0.5]) for spec in pair
            )
        cases.extend(EquivalenceCase(name, spec) for spec in pair)
    cases.append(EquivalenceCase("fifoms", bernoulli, fault="flaky-crosspoint"))
    return cases


def run_grid(
    cases: list[EquivalenceCase] | None = None,
    *,
    num_ports: int = 8,
    num_slots: int = 4000,
    verbose: bool = False,
) -> list[EquivalenceReport]:
    """Run every case of the grid; raise on the first inequivalence."""
    reports = []
    for case in cases if cases is not None else default_grid():
        report = run_case(case, num_ports=num_ports, num_slots=num_slots)
        if verbose:
            print(
                f"  ok  {case.label:34s} {report.slots_compared} slots, "
                f"digests+summary+state+telemetry identical to the reference"
            )
        reports.append(report)
    return reports


#: Summary fields that must agree exactly for :func:`compare_summaries`.
PARITY_FIELDS: tuple[str, ...] = (
    "slots_run",
    "average_input_delay",
    "average_output_delay",
    "average_queue_size",
    "max_queue_size",
    "average_rounds",
    "max_rounds",
    "packets_offered",
    "cells_offered",
    "cells_delivered",
    "final_backlog",
    "unstable",
)


def run_pair(
    algorithm: str,
    traffic: TrafficModel,
    num_slots: int,
    *,
    warmup_fraction: float = 0.5,
    seed: int = 0,
    **switch_kwargs: object,
) -> tuple[SimulationSummary, SimulationSummary]:
    """Run (reference, production) — the ``object`` and ``vectorized``
    kernels — on one recorded trace.

    Where :func:`run_case` compares two seeded runs slot by slot, this
    pins both to the *identical* arrival sequence by recording
    ``traffic`` into a trace and replaying it twice; both sides build
    their scheduler from the same tie-break ``seed``, so randomized
    arbiters consume identical RNG streams. ``algorithm`` is any registry
    pairing name; extra keyword arguments forward to the switch factory
    (``tie_break``, ``max_iterations``, ...). A single-bodied pairing
    builds the same switch under either name, so for it this is a
    determinism check. Build errors propagate.
    """
    packets = record_trace(traffic, num_slots)
    n = traffic.num_ports
    cfg = SimulationConfig(
        num_slots=num_slots,
        warmup_fraction=warmup_fraction,
        stability_window=max(100, num_slots // 100),
    )

    def one(backend: str) -> SimulationSummary:
        switch = make_switch(
            algorithm, n, rng=seed, backend=backend, **switch_kwargs
        )
        return SimulationEngine(
            switch, TraceTraffic(n, packets), cfg, algorithm_name=algorithm
        ).run()

    return one("object"), one("vectorized")


def diverging_traces(
    algorithm: str, num_ports: int, horizon: int, **switch_kwargs: object
) -> list[tuple]:
    """Every trace of the bounded domain (:func:`repro.verify.exhaustive.traces`)
    on which production's slot digests differ from the reference's.

    Each trace runs to drain once per kernel, both schedulers seeded
    alike (``rng=0``), so an empty list is decision-equality over the
    whole domain: same grants, rounds, per-round grants, splits and
    deliveries in every slot. ``switch_kwargs`` go to the registry
    factory (e.g. ``tie_break="lowest_input"``).
    """
    diverging = []
    for trace in traces(num_ports, horizon):
        packets = [Packet(i, dests, slot) for slot, i, dests in trace]
        cfg = SimulationConfig(
            num_slots=horizon + sum(p.fanout for p in packets) + 1,
            warmup_fraction=0.0,
            max_backlog=None,
            stability_window=0,
        )
        streams = []
        for backend in ("object", "vectorized"):
            recorder = RecordingSwitch(make_switch(
                algorithm, num_ports, rng=0, backend=backend, **switch_kwargs
            ))
            SimulationEngine(
                recorder, TraceTraffic(num_ports, packets), cfg,
                algorithm_name=algorithm,
            ).run()
            streams.append(recorder.digests)
        if streams[0] != streams[1]:
            diverging.append(trace)
    return diverging


def compare_summaries(
    ref: SimulationSummary,
    other: SimulationSummary,
    *,
    fields: tuple[str, ...] = PARITY_FIELDS,
    rel_tol: float = 1e-12,
) -> list[str]:
    """Return a description of every field where the two summaries differ."""
    problems = []
    for name in fields:
        a, b = getattr(ref, name), getattr(other, name)
        if isinstance(a, float) or isinstance(b, float):
            a_f, b_f = float(a), float(b)
            same = (math.isnan(a_f) and math.isnan(b_f)) or math.isclose(
                a_f, b_f, rel_tol=rel_tol, abs_tol=0.0
            )
        else:
            same = a == b
        if not same:
            problems.append(f"{name}: reference={a!r} other={b!r}")
    return problems


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run the default grid, exit 0 on full equivalence."""
    parser = argparse.ArgumentParser(
        prog="repro.kernel.equivalence",
        description="Hold production to the reference model, bit for bit.",
    )
    parser.add_argument("--ports", type=int, default=8, help="switch size N")
    parser.add_argument(
        "--slots", type=int, default=4000, help="slots per case per backend"
    )
    args = parser.parse_args(argv)
    print(
        f"reference vs production grid: N={args.ports}, "
        f"{args.slots} slots per case"
    )
    single = single_bodied_pairings()
    print(
        f"  not compared ({len(single)} single-bodied, held by golden "
        f"pins): {', '.join(single)}"
    )
    try:
        reports = run_grid(
            num_ports=args.ports, num_slots=args.slots, verbose=True
        )
    except EquivalenceError as exc:
        print(f"FAIL: {exc}")
        return 1
    print(f"all {len(reports)} cases bit-identical: production == reference")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
