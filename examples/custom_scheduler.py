#!/usr/bin/env python
"""Extending the library with a custom multicast VOQ scheduler.

Implements LQF-MS, a variant of FIFOMS in which output ports grant the
input with the *longest total backlog* instead of the oldest time stamp,
registers it under a new algorithm name, and races it against FIFOMS on
the paper's Fig. 4 workload.

The point of the exercise (and of the ablation it automates): timestamp
arbitration is what makes independently-deciding outputs converge on the
SAME multicast packet. A queue-length weight has no such coordination, so
LQF-MS splits fanouts more and loses the latency race even though it
sounds like a reasonable scheduler.

Usage::

    python examples/custom_scheduler.py
"""

from __future__ import annotations

from collections.abc import Sequence

from repro import (
    MulticastVOQSwitch,
    ScheduleDecision,
    register_switch_factory,
    run_simulation,
)
from repro.analysis.loads import bernoulli_arrival_probability
from repro.core.voq import MulticastVOQInputPort
from repro.report.ascii import format_table

__all__ = ["main"]


class LQFMulticastScheduler:
    """FIFOMS's request structure with longest-queue-first grants."""

    name = "lqf-ms"

    def __init__(self, num_ports: int) -> None:
        self.num_ports = num_ports

    def schedule(self, ports: Sequence[MulticastVOQInputPort]) -> ScheduleDecision:
        n = self.num_ports
        decision = ScheduleDecision()
        input_free = [True] * n
        output_free = [True] * n
        granted: list[list[int]] = [[] for _ in range(n)]
        rounds = 0
        while True:
            # Request: free inputs offer the HOL packet of their most
            # backlogged eligible VOQ (weight = total address cells held).
            requests: list[list[tuple[int, int]]] = [[] for _ in range(n)]
            any_request = False
            for i in range(n):
                if not input_free[i]:
                    continue
                port = ports[i]
                weight = port.total_address_cells
                best_ts = port.min_hol_timestamp(output_free)
                if best_ts is None:
                    continue
                for j, q in enumerate(port.voqs):
                    if output_free[j] and q and q.head().timestamp == best_ts:
                        requests[j].append((weight, i))
                        any_request = True
            if any_request:
                decision.requests_made = True
            else:
                break
            # Grant: heaviest input wins (ties to lowest index).
            new_match = False
            for j in range(n):
                if not output_free[j] or not requests[j]:
                    continue
                _, winner = max(requests[j], key=lambda wi: (wi[0], -wi[1]))
                output_free[j] = False
                input_free[winner] = False
                granted[winner].append(j)
                new_match = True
            if not new_match:
                break
            rounds += 1
        for i in range(n):
            if granted[i]:
                decision.add(i, tuple(granted[i]))
        decision.rounds = rounds
        return decision


def _factory(num_ports: int, *, rng=None, **kw) -> MulticastVOQSwitch:
    return MulticastVOQSwitch(num_ports, LQFMulticastScheduler(num_ports), **kw)


def main() -> None:
    register_switch_factory("lqf-ms", _factory)

    n, b = 16, 0.2
    print("FIFOMS vs custom LQF-MS on the Fig. 4 workload\n")
    rows = []
    for load in (0.5, 0.7, 0.85):
        p = bernoulli_arrival_probability(n, load, b)
        for algorithm in ("fifoms", "lqf-ms"):
            s = run_simulation(
                algorithm,
                n,
                {"model": "bernoulli", "p": p, "b": b},
                num_slots=15_000,
                seed=9,
            )
            rows.append(
                [
                    round(load, 2),
                    algorithm,
                    round(s.average_output_delay, 2),
                    round(s.average_input_delay, 2),
                    round(s.average_queue_size, 3),
                    "SATURATED" if s.unstable else "ok",
                ]
            )
    print(
        format_table(
            ["load", "scheduler", "out delay", "in delay", "avg queue", "status"],
            rows,
        )
    )
    print(
        "\nTimestamps win: LQF weights don't coordinate the output ports\n"
        "onto one multicast packet, so LQF-MS splits fanouts and carries a\n"
        "higher input-oriented delay."
    )


if __name__ == "__main__":
    main()
