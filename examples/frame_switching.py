#!/usr/bin/env python
"""Variable-size frames through the cell switch (SAR pipeline).

The paper's switch moves fixed-size cells; real traffic is variable-size
frames. This example wires the full segmentation-and-reassembly path:

    FrameWorkload -> FrameSegmenter -> FIFOMS cell switch
                  -> FrameReassembler -> frame-level delay stats

and reports *frame* latency (a frame completes at an output only when its
last cell lands) next to the underlying *cell* latency, for two frame
size mixes. Long frames amortize scheduling but stretch the reassembly
tail — exactly the trade-off a line-card designer tunes.

Usage::

    python examples/frame_switching.py
"""

from __future__ import annotations

from repro import MulticastVOQSwitch
from repro.core.fifoms import FIFOMSScheduler
from repro.frames import FrameTrafficAdapter, FrameWorkload
from repro.report.ascii import format_table
from repro.stats.histogram import DelayHistogram
from repro.utils.rng import make_rng

__all__ = ["main"]

NUM_PORTS = 8
NUM_SLOTS = 20_000


def run_mix(mean_size: float, frame_rate: float) -> list:
    workload = FrameWorkload(
        NUM_PORTS,
        frame_rate=frame_rate,
        mean_size=mean_size,
        b=0.3,
        max_size=32,
        rng=11,
    )
    adapter = FrameTrafficAdapter(workload, warmup_slot=NUM_SLOTS // 2)
    switch = MulticastVOQSwitch(
        NUM_PORTS, FIFOMSScheduler(NUM_PORTS, rng=make_rng(12))
    )
    cell_delays = DelayHistogram()
    for slot in range(NUM_SLOTS):
        result = switch.step(adapter.next_slot(), slot)
        adapter.on_deliveries(result.deliveries)
        if slot >= NUM_SLOTS // 2:
            for d in result.deliveries:
                cell_delays.record(d.delay)
    frames = adapter.frame_delays
    return [
        f"{mean_size:.0f} cells",
        round(workload.offered_cell_load, 3),
        frames.frame_count,
        round(cell_delays.mean, 2),
        int(cell_delays.percentile(99)),
        round(frames.average_output_delay, 2),
        round(frames.average_input_delay, 2),
        frames.max_frame_delay,
    ]


def main() -> None:
    print(
        f"Frame switching over a {NUM_PORTS}x{NUM_PORTS} FIFOMS switch, "
        f"{NUM_SLOTS} slots, multicast b=0.3\n"
    )
    rows = [
        run_mix(mean_size=2.0, frame_rate=0.10),   # short frames
        run_mix(mean_size=8.0, frame_rate=0.025),  # long frames, same load
    ]
    print(
        format_table(
            ["mean frame", "cell load", "frames done", "cell delay",
             "cell p99", "frame out-delay", "frame in-delay", "worst frame"],
            rows,
        )
    )
    print(
        "\nReading: both rows offer the same cell load, but long frames\n"
        "shift latency from per-frame overhead to reassembly wait — the\n"
        "frame-level delay grows with frame length even though per-cell\n"
        "delay barely moves."
    )


if __name__ == "__main__":
    main()
