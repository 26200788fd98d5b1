"""Multicast service-quality metrics: fanout splitting statistics.

FIFOMS *permits* fanout splitting (§VI) but its timestamp coordination is
designed to make whole-fanout service the common case. This tracker
quantifies that: for every completed multicast packet it records how many
distinct slots its destinations were served in, yielding

* ``split_ratio`` — fraction of multicast packets needing more than one
  slot (lower = better output coordination), and
* ``average_service_slots`` — mean slots per multicast packet (1.0 is
  the ideal the crossbar's multicast capability allows).

The ABL-SCHED ablation uses this to show what FIFOMS's timestamps buy
over the greedy pointer scheduler on the identical queue structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.packet import Packet

__all__ = ["MulticastServiceTracker"]


@dataclass(slots=True)
class _Open:
    arrival_slot: int
    fanout: int
    delivered: int
    slots: set


class MulticastServiceTracker:
    """Counts service slots per multicast packet (warmup-gated)."""

    def __init__(self, warmup_slot: int = 0) -> None:
        self.warmup_slot = warmup_slot
        self._open: dict[int, _Open] = {}
        # Completed multicast packets only (fanout >= 2).
        self.completed = 0
        self.split_packets = 0
        self.service_slots_sum = 0
        self.max_service_slots = 0
        # Unicast completions tracked for the denominator sanity checks.
        self.completed_unicast = 0

    # ------------------------------------------------------------------ #
    def on_arrival(self, packet_id: int, arrival_slot: int, fanout: int) -> None:
        """Register an accepted packet for service-slot tracking."""
        if packet_id in self._open:
            raise SimulationError(f"packet {packet_id} registered twice")
        self._open[packet_id] = _Open(arrival_slot, fanout, 0, set())

    def on_service(self, packet: Packet, n: int, slot: int) -> None:
        """Record ``n`` copies served in ``slot``; finalizes a completed packet."""
        pid = packet.packet_id
        entry = self._open.get(pid)
        if entry is None:
            raise SimulationError(f"delivery for unknown packet {pid}")
        entry.delivered += n
        entry.slots.add(slot)
        if entry.delivered == entry.fanout:
            counted = entry.arrival_slot >= self.warmup_slot
            slots_used = len(entry.slots)
            del self._open[pid]
            if not counted:
                return
            if entry.fanout == 1:
                self.completed_unicast += 1
                return
            self.completed += 1
            self.service_slots_sum += slots_used
            if slots_used > 1:
                self.split_packets += 1
            if slots_used > self.max_service_slots:
                self.max_service_slots = slots_used

    # ------------------------------------------------------------------ #
    @property
    def split_ratio(self) -> float:
        """Fraction of multicast packets served across > 1 slot."""
        if self.completed == 0:
            return float("nan")
        return self.split_packets / self.completed

    @property
    def average_service_slots(self) -> float:
        """Mean distinct service slots per multicast packet (ideal 1.0)."""
        if self.completed == 0:
            return float("nan")
        return self.service_slots_sum / self.completed
