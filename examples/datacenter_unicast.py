#!/usr/bin/env python
"""Datacenter ToR scenario: pure unicast plus a skewed 'incast' twist.

Two questions a switch designer would ask of the paper:

1. *Does adopting the multicast-oriented FIFOMS cost anything on plain
   unicast traffic?* (The paper's Fig. 6: no — it matches iSLIP.)
2. *What happens under a skewed, hotspot destination pattern* — the
   incast-like workloads a ToR actually sees? (Beyond the paper: we use
   the hotspot traffic extension and include MaxWeight, the theoretical
   optimum, as the reference.)

Usage::

    python examples/datacenter_unicast.py
"""

from __future__ import annotations

from repro import run_simulation
from repro.analysis.queueing import siq_saturation_load
from repro.report.ascii import format_table

__all__ = ["main"]

NUM_PORTS = 16
NUM_SLOTS = 25_000


def run_panel(title: str, traffic_spec: dict, algorithms) -> None:
    print(f"--- {title} ---")
    rows = []
    for algorithm in algorithms:
        s = run_simulation(
            algorithm, NUM_PORTS, dict(traffic_spec), num_slots=NUM_SLOTS, seed=31
        )
        rows.append(
            [
                algorithm,
                round(s.carried_load, 3),
                round(s.average_output_delay, 2),
                round(s.average_queue_size, 3),
                s.max_queue_size,
                "SATURATED" if s.unstable else "ok",
            ]
        )
    print(
        format_table(
            ["scheduler", "carried", "delay", "avg queue", "max queue", "status"],
            rows,
        )
    )
    print()


def main() -> None:
    print(f"{NUM_PORTS}x{NUM_PORTS} ToR switch, {NUM_SLOTS} slots per run\n")

    # Panel 1: uniform unicast at 85% — everyone's bread and butter.
    run_panel(
        "uniform unicast, 85% load (paper Fig. 6 territory)",
        {"model": "uniform", "p": 0.85, "max_fanout": 1},
        ("fifoms", "islip", "maxweight-lqf", "tatra", "oqfifo"),
    )
    print(
        f"note: single-input-queueing saturates at "
        f"~{siq_saturation_load(NUM_PORTS):.3f} (Karol), hence TATRA's row.\n"
    )

    # Panel 2: hotspot skew — 30% of traffic aimed at 2 hot ToR uplinks.
    run_panel(
        "hotspot unicast (2 hot uplinks carry 30% of traffic), 60% load",
        {
            "model": "hotspot",
            "p": 0.6,
            "max_fanout": 1,
            "num_hotspots": 2,
            "hotspot_fraction": 0.3,
        },
        ("fifoms", "islip", "maxweight-lqf", "oqfifo"),
    )
    print(
        "Reading: FIFOMS gives up nothing on unicast — matching the\n"
        "specialized schedulers — so a multicast-capable deployment does\n"
        "not need a second scheduler for its unicast majority traffic."
    )


if __name__ == "__main__":
    main()
