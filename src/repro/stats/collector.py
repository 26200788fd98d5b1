"""Facade wiring the individual trackers to the engine's slot events."""

from __future__ import annotations

from collections.abc import Sequence

from repro.packet import Packet
from repro.stats.convergence import ConvergenceTracker
from repro.stats.delay import DelayTracker
from repro.stats.histogram import DelayHistogram
from repro.stats.multicast import MulticastServiceTracker
from repro.stats.occupancy import OccupancyTracker
from repro.stats.throughput import ThroughputTracker
from repro.switch.base import SlotResult

__all__ = ["StatsCollector"]


class StatsCollector:
    """Receives one callback per slot and fans out to all trackers.

    ``extended=True`` additionally maintains an exact per-delivery delay
    histogram (percentiles) and the multicast fanout-splitting tracker;
    both are cheap but off by default to keep paper-metric runs lean.
    """

    def __init__(
        self, num_ports: int, warmup_slot: int, *, extended: bool = False
    ) -> None:
        self.num_ports = num_ports
        self.warmup_slot = warmup_slot
        self.delay = DelayTracker(warmup_slot)
        self.occupancy = OccupancyTracker(warmup_slot)
        self.convergence = ConvergenceTracker(warmup_slot)
        self.throughput = ThroughputTracker(num_ports, warmup_slot)
        self.extended = extended
        self.delay_histogram = DelayHistogram() if extended else None
        self.multicast = MulticastServiceTracker(warmup_slot) if extended else None
        # Whole-run loss/fault accounting (the throughput tracker keeps
        # the post-warmup view). Dropped packets are NEVER registered with
        # the delay tracker, so the engine's conservation audit — pending
        # cells vs switch backlog — stays balanced under loss.
        self.cells_dropped = 0
        self.packets_dropped = 0
        self.grants_lost = 0

    def on_slot(
        self,
        slot: int,
        arrivals: Sequence[Packet | None],
        result: SlotResult,
        queue_sizes: Sequence[int],
    ) -> None:
        """Process one completed slot (arrivals already include warmup)."""
        dropped = result.dropped_packets
        dropped_ids = frozenset(p.packet_id for p in dropped) if dropped else None
        dropped_cells = 0
        dropped_packets = 0
        arrived_cells = 0
        arrived_packets = 0
        register = self.delay.on_arrival
        multicast = self.multicast
        for pkt in arrivals:
            if pkt is None:
                continue
            fanout = len(pkt.destinations)
            arrived_packets += 1
            arrived_cells += fanout
            pid = pkt.packet_id
            if dropped_ids is not None and pid in dropped_ids:
                dropped_packets += 1
                dropped_cells += fanout
                continue
            register(pid, pkt.arrival_slot, fanout)
            if multicast is not None:
                multicast.on_arrival(pid, pkt.arrival_slot, fanout)
        self.delay.on_rows(result.rows, slot)
        histogram = self.delay_histogram
        if multicast is not None and histogram is not None:
            for packet, mask in result.rows:
                n = mask.bit_count()
                multicast.on_service(packet, n, slot)
                if packet.arrival_slot >= self.warmup_slot:
                    histogram.record(slot - packet.arrival_slot + 1, n)
        self.cells_dropped += dropped_cells
        self.packets_dropped += dropped_packets
        self.grants_lost += result.grants_lost
        self.occupancy.on_slot(slot, queue_sizes)
        self.convergence.on_slot(slot, result.rounds, result.requests_made)
        self.throughput.on_slot(
            slot,
            arrived_cells,
            arrived_packets,
            result.cells_delivered,
            dropped_cells,
            dropped_packets,
        )

    def extended_metrics(self) -> dict[str, float]:
        """The extra-summary dict for extended runs (empty otherwise)."""
        if not self.extended:
            return {}
        out: dict[str, float] = {}
        hist = self.delay_histogram
        if hist is not None and hist.count:
            out["delay_p50"] = float(hist.percentile(50))
            out["delay_p99"] = float(hist.percentile(99))
            out["delay_max"] = float(hist.max or 0)
        mc = self.multicast
        if mc is not None and mc.completed:
            out["split_ratio"] = mc.split_ratio
            out["avg_service_slots"] = mc.average_service_slots
        return out
