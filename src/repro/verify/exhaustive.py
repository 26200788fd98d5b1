"""Run every bounded trace through the engine under the sanitizer.

The trace domain: for each of ``horizon`` slots and each of ``num_ports``
inputs, either no arrival or a packet with any non-empty destination
subset — ``(2^N)`` options per (slot, input) cell, enumerated as a mixed-
radix counter. For N = 2, horizon = 3 that is 4^6 = 4096 traces; each is
run to drain (bounded by total cells) under the algorithm's deterministic
configuration.

Each trace runs through :class:`~repro.sim.engine.SimulationEngine`, the
loop every simulation uses, with a hard-fail
:class:`~repro.sanitize.SanitizerSuite` whose deep pass runs every slot.
The invariants checked are therefore exactly the sanitizer's catalogue
(docs/sanitizers.md): conservation, matching validity, per-pair FIFO
order, the switch's own ``check_invariants()`` with the kernel-seam
cross-checks, and RNG isolation — plus, for the pairings the reference
models (fifoms, greedy-mcast),
:class:`~repro.verify.shadow.ReferenceShadow`: every slot's decision
equal to the reference's, stepped in lockstep. The engine adds its
collector's refusals (a delivery before its arrival, or for a packet
never offered) and its end-of-run conservation audit. The harness owns
only what no per-slot check can see: ``drain`` — everything delivered
within ``horizon + cells`` slots.

A :class:`Violation` records the first failure of a trace. Its ``kind``
is the sanitizer checker's name, ``"drain"``, or ``"exception"`` for any
other :class:`~repro.errors.ReproError` raised inside the run.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import product

from repro.errors import ConfigurationError, ReproError
from repro.packet import Packet
from repro.sanitize import SanitizerError, SanitizerSuite
from repro.schedulers.registry import make_switch
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.traffic.trace import TraceTraffic
from repro.utils.bitsets import bitmask_to_tuple
from repro.verify.shadow import checkers_for

__all__ = [
    "Violation",
    "VerificationReport",
    "check_trace",
    "exhaustive_verify",
    "traces",
]


@dataclass(frozen=True, slots=True)
class Violation:
    """One invariant failure, with the trace that triggered it."""

    kind: str
    detail: str
    trace: tuple[tuple[int, int, tuple[int, ...]], ...]  # (slot, input, dests)


@dataclass(slots=True)
class VerificationReport:
    """Outcome of one exhaustive sweep."""

    algorithm: str
    num_ports: int
    horizon: int
    traces_checked: int = 0
    cells_delivered: int = 0
    max_delay_seen: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return (
            f"[{status}] {self.algorithm} N={self.num_ports} "
            f"horizon={self.horizon}: {self.traces_checked} traces, "
            f"{self.cells_delivered} cells, max delay {self.max_delay_seen}"
        )


def check_trace(
    report: VerificationReport,
    trace: tuple[tuple[int, int, tuple[int, ...]], ...],
    **switch_kwargs,
) -> None:
    """Run one ``(slot, input, dests)`` trace to drain; record the outcome.

    The switch is ``report.algorithm`` at ``report.num_ports`` ports; the
    arrivals span ``report.horizon`` slots. The first violation, if any,
    is appended to ``report.violations``; a clean trace adds its cells
    and its largest delay to the report.
    """
    packets = [
        Packet(input_port=i, destinations=dests, arrival_slot=slot)
        for slot, i, dests in trace
    ]
    total_slots = report.horizon + sum(p.fanout for p in packets) + 1
    # Built outside the try: an unknown algorithm or a bad switch option
    # is the caller's ConfigurationError, not a violation of the algorithm.
    switch = make_switch(report.algorithm, report.num_ports, rng=0, **switch_kwargs)
    suite = SanitizerSuite(checkers=checkers_for(switch), hard_fail=True, deep_every=1)
    engine = SimulationEngine(
        switch,
        TraceTraffic(report.num_ports, packets),
        SimulationConfig(
            num_slots=total_slots,
            warmup_fraction=0.0,
            max_backlog=None,
            stability_window=0,
        ),
        algorithm_name=report.algorithm,
        sanitize=suite,
    )
    try:
        summary = engine.run()
    except SanitizerError:
        first = suite.violations[0]
        detail = f"slot {first.slot}: {first.message}"
        report.violations.append(Violation(first.checker, detail, trace))
        return
    except ReproError as exc:
        report.violations.append(Violation("exception", str(exc), trace))
        return
    if summary.final_backlog:
        report.violations.append(
            Violation(
                "drain",
                f"{summary.final_backlog} cells left after {total_slots} slots",
                trace,
            )
        )
        return
    report.cells_delivered += summary.cells_delivered
    report.max_delay_seen = max(
        report.max_delay_seen, engine.collector.delay.max_delivery_delay
    )


def traces(
    num_ports: int, horizon: int
) -> Iterator[tuple[tuple[int, int, tuple[int, ...]], ...]]:
    """Every ``(slot, input, dests)`` trace of the bounded domain, in a
    fixed order: ``(2^num_ports) ** (num_ports * horizon)`` of them.
    Raises :class:`~repro.errors.ConfigurationError` for an empty or an
    oversized domain (more than 200 000 traces)."""
    if num_ports < 1 or horizon < 1:
        raise ConfigurationError("num_ports and horizon must be >= 1")
    domain_size = (2**num_ports) ** (num_ports * horizon)
    if domain_size > 200_000:
        raise ConfigurationError(
            f"domain has {domain_size} traces; shrink num_ports/horizon"
        )
    options = list(range(2**num_ports))  # 0 = no arrival, else dest mask
    cells = [(slot, i) for slot in range(horizon) for i in range(num_ports)]
    for assignment in product(options, repeat=len(cells)):
        yield tuple(
            (slot, i, bitmask_to_tuple(mask))
            for (slot, i), mask in zip(cells, assignment)
            if mask
        )


def exhaustive_verify(
    algorithm: str,
    *,
    num_ports: int = 2,
    horizon: int = 3,
    stop_at_first: bool = True,
    **switch_kwargs,
) -> VerificationReport:
    """Check ``algorithm`` against every trace of the bounded domain
    (:func:`traces`).

    The domain has ``(2^num_ports) ** (num_ports * horizon)`` traces;
    keep ``num_ports``/``horizon`` tiny (the default domain has 4096).
    ``switch_kwargs`` go to the registry factory (e.g.
    ``tie_break='lowest_input'``); the scheduler's tie-break stream is
    seeded, so every reported violation replays.
    """
    domain = traces(num_ports, horizon)
    report = VerificationReport(
        algorithm=algorithm, num_ports=num_ports, horizon=horizon
    )
    for trace in domain:
        report.traces_checked += 1
        check_trace(report, trace, **switch_kwargs)
        if report.violations and stop_at_first:
            break
    return report
