"""Multicast service-quality metrics: fanout splitting statistics.

FIFOMS *permits* fanout splitting (§VI) but its timestamp coordination is
designed to make whole-fanout service the common case. This tracker
quantifies that: for every completed multicast packet it records how many
distinct slots its destinations were served in, yielding

* ``split_ratio`` — fraction of multicast packets needing more than one
  slot (lower = better output coordination), and
* ``average_service_slots`` — mean slots per multicast packet (1.0 is
  the ideal the crossbar's multicast capability allows).

Runs with ``extended_stats`` report both in ``summary.extra``.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.packet import Packet

__all__ = ["MulticastServiceTracker"]


class MulticastServiceTracker:
    """Counts service slots per multicast packet (warmup-gated)."""

    def __init__(self, warmup_slot: int = 0) -> None:
        self.warmup_slot = warmup_slot
        # packet_id -> [arrival_slot, fanout, delivered, service slots]
        self._open: dict[int, list] = {}
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
        entry = [arrival_slot, fanout, 0, set()]
        if self._open.setdefault(packet_id, entry) is not entry:
            raise SimulationError(f"packet {packet_id} registered twice")

    def on_service(self, packet: Packet, n: int, slot: int) -> None:
        """Record ``n`` copies served in ``slot``; finalizes a completed packet."""
        pid = packet.packet_id
        entry = self._open.get(pid)
        if entry is None:
            raise SimulationError(f"delivery for unknown packet {pid}")
        arrival, fanout, delivered, slots = entry
        entry[2] = delivered = delivered + n
        slots.add(slot)
        if delivered == fanout:
            del self._open[pid]
            if arrival < self.warmup_slot:
                return
            if fanout == 1:
                self.completed_unicast += 1
                return
            slots_used = len(slots)
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
