"""Enumerate every bounded trace and check every invariant.

The trace domain: for each of ``horizon`` slots and each of ``num_ports``
inputs, either no arrival or a packet with any non-empty destination
subset — ``(2^N)`` options per (slot, input) cell, enumerated as a mixed-
radix counter. For N = 2, horizon = 3 that is 4^6 = 4096 traces; each is
run to drain (bounded by total cells) under the algorithm's deterministic
configuration.

Checks per trace (a :class:`Violation` records the first failure):

* ``conservation`` — delivered + backlog == offered after every slot;
* ``feasible`` — validated inside the switch (crossbar/decision checks
  raise), surfaced here as an ``exception`` violation;
* ``causality`` — no delivery before arrival;
* ``output-exclusivity`` — one delivery per (output, slot);
* ``fifo`` — per (input, output) services in arrival order;
* ``drain`` — everything delivered within ``horizon + cells`` slots;
* ``internal`` — the switch's own ``check_invariants`` every slot.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import product

from repro.errors import ConfigurationError, ReproError
from repro.packet import Packet
from repro.schedulers.registry import make_switch
from repro.traffic.trace import TraceTraffic
from repro.utils.bitsets import bitmask_to_tuple

__all__ = ["Violation", "VerificationReport", "exhaustive_verify"]


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


def _check_one(
    algorithm: str,
    num_ports: int,
    trace_desc: tuple[tuple[int, int, tuple[int, ...]], ...],
    horizon: int,
    report: VerificationReport,
    **switch_kwargs,
) -> None:
    packets = [
        Packet(input_port=i, destinations=dests, arrival_slot=slot)
        for slot, i, dests in trace_desc
    ]
    offered = sum(p.fanout for p in packets)
    total_slots = horizon + offered + 1
    deliveries = []
    # Built outside the try: an unknown algorithm or a bad switch option
    # is the caller's ConfigurationError, not a violation of the algorithm.
    switch = make_switch(algorithm, num_ports, rng=0, **switch_kwargs)
    try:
        traffic = TraceTraffic(num_ports, packets)
        delivered = 0
        for slot in range(total_slots):
            arrivals = traffic.next_slot() if slot < horizon else [None] * num_ports
            result = switch.step(arrivals, slot)
            deliveries.extend(result.deliveries)
            delivered += result.cells_delivered
            arrived = sum(p.fanout for p in packets if p.arrival_slot <= slot)
            if delivered + switch.total_backlog() != arrived:
                report.violations.append(
                    Violation("conservation", f"slot {slot}", trace_desc)
                )
                return
            switch.check_invariants()
        if switch.total_backlog() != 0:
            report.violations.append(
                Violation(
                    "drain",
                    f"{switch.total_backlog()} cells left after {total_slots} slots",
                    trace_desc,
                )
            )
            return
    except ReproError as exc:
        report.violations.append(Violation("exception", str(exc), trace_desc))
        return
    # Cross-cutting checks over the delivery log.
    seen_output_slot = set()
    per_pair: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
    for d in deliveries:
        if d.service_slot < d.packet.arrival_slot:
            report.violations.append(
                Violation("causality", f"{d.packet.packet_id}", trace_desc)
            )
            return
        key = (d.output_port, d.service_slot)
        if key in seen_output_slot:
            report.violations.append(
                Violation("output-exclusivity", str(key), trace_desc)
            )
            return
        seen_output_slot.add(key)
        per_pair[(d.packet.input_port, d.output_port)].append(
            (d.service_slot, d.packet.arrival_slot)
        )
        delay = d.service_slot - d.packet.arrival_slot + 1
        if delay > report.max_delay_seen:
            report.max_delay_seen = delay
    if switch.fifo_per_pair:
        for services in per_pair.values():
            services.sort()
            arrivals_in_service_order = [a for _, a in services]
            if arrivals_in_service_order != sorted(arrivals_in_service_order):
                report.violations.append(Violation("fifo", "", trace_desc))
                return
    report.cells_delivered += len(deliveries)


def exhaustive_verify(
    algorithm: str,
    *,
    num_ports: int = 2,
    horizon: int = 3,
    stop_at_first: bool = True,
    **switch_kwargs,
) -> VerificationReport:
    """Check ``algorithm`` against every trace of the bounded domain.

    The domain has ``(2^num_ports) ** (num_ports * horizon)`` traces;
    keep ``num_ports``/``horizon`` tiny (the default domain has 4096).
    ``switch_kwargs`` go to the registry factory — pass deterministic
    configurations (e.g. ``tie_break='lowest_input'``) so a reported
    violation is replayable.
    """
    if num_ports < 1 or horizon < 1:
        raise ConfigurationError("num_ports and horizon must be >= 1")
    domain_size = (2**num_ports) ** (num_ports * horizon)
    if domain_size > 200_000:
        raise ConfigurationError(
            f"domain has {domain_size} traces; shrink num_ports/horizon"
        )
    report = VerificationReport(
        algorithm=algorithm, num_ports=num_ports, horizon=horizon
    )
    options = list(range(2**num_ports))  # 0 = no arrival, else dest mask
    cells = [(slot, i) for slot in range(horizon) for i in range(num_ports)]
    for assignment in product(options, repeat=len(cells)):
        trace_desc = tuple(
            (slot, i, bitmask_to_tuple(mask))
            for (slot, i), mask in zip(cells, assignment)
            if mask
        )
        report.traces_checked += 1
        _check_one(
            algorithm, num_ports, trace_desc, horizon, report, **switch_kwargs
        )
        if report.violations and stop_at_first:
            break
    return report
