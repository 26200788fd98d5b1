"""Production held to the reference model, bit for bit, one run per case.

Production (``vectorized``: :class:`~repro.kernel.state.SwitchState` and
the schedulers' ``schedule_state``) is admissible only because it is
*indistinguishable* from the reference model of PAPER.md
(:mod:`repro.verify.reference`), which shares no code with it. A grid case
is one engine run under the hard-fail sanitizer catalogue joined by
:class:`~repro.verify.shadow.ReferenceShadow`, which steps the reference in
lockstep beside production and fails the case at the first slot they
differ in. The grid (:func:`default_grid`) is every dual pairing of the
registry (:func:`classify_registry`) under two traffic models, plus one
fault case; the single-bodied pairings are held by the golden pins of
``tests/test_single_body_golden.py``. Run it as
``python -m repro.verify.grid --ports N --slots S`` (docs/kernel.md).

Not imported from ``repro.verify``, so a simulation run never loads it.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError, EquivalenceError
from repro.sanitize import SanitizerError, SanitizerSuite
from repro.schedulers.registry import available_schedulers, make_switch
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.runner import build_traffic
from repro.switch.base import SlotResult
from repro.utils.bitsets import iter_bits
from repro.utils.rng import RngStreams
from repro.verify.shadow import checkers_for

__all__ = [
    "EquivalenceCase", "EquivalenceReport", "slot_digest", "record_digests",
    "case_engine", "run_case", "default_grid", "classify_registry",
    "single_bodied_pairings", "main",
]


def slot_digest(result: SlotResult) -> tuple:
    """Hashable digest of one slot's observable behaviour.

    Deliveries and drops are keyed by ``(input_port, arrival_slot)`` —
    stable across runs — and sorted so that digest equality means
    set-equality of the slot's events, not accidental ordering.
    """
    deliveries = sorted((packet.input_port, packet.arrival_slot, j, result.slot)
                        for packet, mask in result.rows for j in iter_bits(mask))
    dropped = sorted((p.input_port, p.arrival_slot, p.destinations)
                     for p in result.dropped_packets)
    return (
        result.slot, result.rounds, result.requests_made, result.round_grants,
        result.splits, result.reclaimed, result.grants_lost,
        tuple(deliveries), tuple(dropped),
    )


def record_digests(switch: Any) -> list[tuple]:
    """Shadow ``switch.step`` on the instance (the engine looks it up when
    its run starts) so each stepped slot appends its :func:`slot_digest`
    to the returned list."""
    digests: list[tuple] = []
    step = switch.step

    def recording_step(arrivals: Any, slot: int) -> SlotResult:
        result = step(arrivals, slot)
        digests.append(slot_digest(result))
        return result

    switch.step = recording_step
    return digests


@dataclass(frozen=True, slots=True)
class EquivalenceCase:
    """One (scheduler, traffic, fault) point of the equivalence grid."""

    #: Registry name of the switch pairing.
    algorithm: str
    #: Traffic spec dict as accepted by :func:`repro.sim.runner.build_traffic`.
    traffic: dict[str, Any]
    #: Fault scenario name from :data:`repro.faults.FAULT_SCENARIOS`, or None.
    fault: str | None = None
    #: Root seed of the case's run.
    seed: int = 12061

    @property
    def label(self) -> str:
        """Human-readable case name for reports and failures."""
        fault = f"+{self.fault}" if self.fault else ""
        return f"{self.algorithm}/{self.traffic['model']}{fault}"


@dataclass(frozen=True, slots=True)
class EquivalenceReport:
    """A case that ran clean: every slot equal to the reference's."""

    case: EquivalenceCase
    slots_compared: int


def case_engine(
    case: EquivalenceCase, num_ports: int, num_slots: int, **engine_kwargs: Any
) -> SimulationEngine:
    """One case's engine, wired as :func:`repro.sim.runner.run_simulation`
    wires a run: traffic, scheduler and fault streams from one
    :class:`~repro.utils.rng.RngStreams` of ``case.seed``, half the run
    warm-up. ``engine_kwargs`` go to the engine (``telemetry=``, ...)."""
    streams = RngStreams(case.seed)
    traffic = build_traffic(dict(case.traffic), num_ports, rng=streams.get("traffic"))
    switch = make_switch(case.algorithm, num_ports, rng=streams.get("scheduler"))
    injector = None
    if case.fault is not None:
        from repro.faults.scenarios import build_fault_injector

        injector = build_fault_injector(
            case.fault, num_ports=num_ports, num_slots=num_slots, rng=streams
        )
    cfg = SimulationConfig(num_slots=num_slots, warmup_fraction=0.5,
                           stability_window=max(100, num_slots // 100))
    return SimulationEngine(switch, traffic, cfg, seed=case.seed, faults=injector,
                            algorithm_name=case.algorithm, **engine_kwargs)


def run_case(
    case: EquivalenceCase, *, num_ports: int = 8, num_slots: int = 4000
) -> EquivalenceReport:
    """Run one case once under the hard-fail default catalogue, joined by
    :class:`~repro.verify.shadow.ReferenceShadow` when the reference
    models the pairing (a single-bodied one runs under the catalogue
    alone). Raises :class:`~repro.errors.EquivalenceError` at the first
    violation, naming its checker and slot."""
    engine = case_engine(case, num_ports, num_slots)
    engine.sanitizer = SanitizerSuite(
        checkers=checkers_for(engine.switch), hard_fail=True)
    try:
        engine.run()
    except SanitizerError as exc:
        raise EquivalenceError(
            f"production diverges from the reference for {case.label}: {exc}"
        ) from exc
    return EquivalenceReport(case=case, slots_compared=engine.slots_run)


def classify_registry() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Sort every registry pairing by what ``backend="vectorized"`` builds:
    ``(single_bodied, dual)``. A dual switch really runs the second
    representation (the grid's subject); a single-bodied one reports
    another ``switch.backend`` (golden pins hold it)."""
    single: list[str] = []
    dual: list[str] = []
    for name in available_schedulers():
        switch = make_switch(name, 4, backend="vectorized")
        (dual if switch.backend == "vectorized" else single).append(name)
    return tuple(single), tuple(dual)


def single_bodied_pairings() -> tuple[str, ...]:
    """Registry pairings with one body whatever ``backend`` says."""
    return classify_registry()[0]


def default_grid() -> list[EquivalenceCase]:
    """The CI grid: every dual pairing (:func:`classify_registry`) × two
    traffic models, plus one fault-injection case. Loads keep every run
    stable for the full slot count at N = 4 and 8 (an early stop would
    shrink what is compared)."""
    bernoulli = {"model": "bernoulli", "p": 0.3, "b": 0.25}
    burst = {"model": "burst", "e_on": 4.0, "e_off": 16.0, "b": 0.3}
    cases = [EquivalenceCase(name, spec)
             for name in classify_registry()[1] for spec in (bernoulli, burst)]
    cases.append(EquivalenceCase("fifoms", bernoulli, fault="flaky-crosspoint"))
    return cases


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run the default grid. Exit 0 on full equivalence,
    1 at the first divergent case, 2 on a switch size or slot count no
    run accepts."""
    parser = argparse.ArgumentParser(
        prog="repro.verify.grid",
        description="Hold production to the reference model, bit for bit.",
    )
    parser.add_argument("--ports", type=int, default=8, help="switch size N")
    parser.add_argument("--slots", type=int, default=4000, help="slots per case")
    args = parser.parse_args(argv)
    print(f"production beside the reference: N={args.ports}, {args.slots} slots per case")
    single = single_bodied_pairings()
    print(f"  not compared ({len(single)} single-bodied, held by golden "
          f"pins): {', '.join(single)}")
    cases = default_grid()
    for case in cases:
        try:
            report = run_case(case, num_ports=args.ports, num_slots=args.slots)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except EquivalenceError as exc:
            print(f"FAIL: {exc}")
            return 1
        print(f"  ok  {case.label:34s} {report.slots_compared} slots, "
              "each equal to the reference's in lockstep")
    print(f"all {len(cases)} cases bit-identical to the reference, slot by slot")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
