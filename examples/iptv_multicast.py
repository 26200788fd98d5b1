#!/usr/bin/env python
"""IPTV head-end scenario: bursty multicast channel distribution.

The workload the paper's introduction motivates: a switch fanning video
streams out to many subscriber line cards. Streams are bursty (GOP
bursts) and strongly correlated — modelled with the paper's on/off Markov
burst traffic (§V.C). The example sweeps subscriber pull (the per-output
probability b) and reports, for each scheduler, whether the switch keeps
up, the 99th-percentile-ish buffer bound (max queue), and the latency a
subscriber sees.

It also answers a provisioning question the paper's queue-size metric is
for: "how many packet buffers per line card do I need to run loss-free?"

Usage::

    python examples/iptv_multicast.py
"""

from __future__ import annotations

from repro import run_simulation
from repro.report.ascii import format_table

__all__ = ["main"]

NUM_PORTS = 16  # line cards
E_ON = 16.0  # mean burst length (slots) — one GOP-ish burst
E_OFF = 150.0  # mean gap between bursts per stream
NUM_SLOTS = 30_000
ALGORITHMS = ("fifoms", "eslip", "tatra", "islip", "oqfifo")


def main() -> None:
    print(
        f"IPTV distribution on a {NUM_PORTS}x{NUM_PORTS} switch: bursty "
        f"multicast (Eon={E_ON:.0f}, Eoff={E_OFF:.0f})\n"
    )
    for b, label in ((0.25, "niche channels (~4 subscribers)"),
                     (0.5, "popular channels (~8 subscribers)")):
        print(f"--- {label}: b = {b} ---")
        rows = []
        for algorithm in ALGORITHMS:
            s = run_simulation(
                algorithm,
                NUM_PORTS,
                {"model": "burst", "e_off": E_OFF, "e_on": E_ON, "b": b},
                num_slots=NUM_SLOTS,
                seed=7,
            )
            rows.append(
                [
                    algorithm,
                    round(s.offered_load, 3),
                    round(s.average_output_delay, 1),
                    round(s.average_input_delay, 1),
                    s.max_queue_size,
                    "SATURATED" if s.unstable else "ok",
                ]
            )
        print(
            format_table(
                ["scheduler", "load", "viewer delay", "stream delay",
                 "buffers needed", "status"],
                rows,
            )
        )
        print()
    print(
        "Reading: 'buffers needed' is the paper's maximum queue size — the\n"
        "loss-free buffer provisioning per line card. FIFOMS needs a small\n"
        "fraction of iSLIP's buffers because it stores one data cell per\n"
        "stream packet instead of one per subscriber copy, and it delivers\n"
        "a burst to all subscribers in the same slot whenever it can."
    )


if __name__ == "__main__":
    main()
