"""Input- and output-oriented delay tracking (paper §V).

* **Input oriented delay** — "the maximum delay that the last destination
  output port of a multicast packet receives the packet": one sample per
  *completed packet*, equal to the max over its per-destination delays.
* **Output oriented delay** — "the average of the delay that the multicast
  packet is delivered to all its destination output ports": one sample per
  *delivery*.

Warmup gating: a packet contributes (to both metrics) iff it **arrived**
at or after the warmup boundary, so both metrics describe the same
steady-state packet population (DESIGN.md §5, convention 3 and 4).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import SimulationError
from repro.packet import Delivery, Packet

__all__ = ["DelayTracker"]


class DelayTracker:
    """Accumulates per-delivery and per-packet delay statistics."""

    def __init__(self, warmup_slot: int = 0) -> None:
        self.warmup_slot = warmup_slot
        # packet_id -> [arrival_slot, fanout, delivered, max_service]
        self._pending: dict[int, list[int]] = {}
        # Output-oriented accumulators (per delivery).
        self.delivery_count = 0
        self.delivery_delay_sum = 0
        self.delivery_delay_sq_sum = 0
        self.max_delivery_delay = 0
        # Input-oriented accumulators (per completed packet).
        self.packet_count = 0
        self.packet_delay_sum = 0
        self.max_packet_delay = 0
        # Anything delivered at all (incl. warmup), for conservation checks.
        self.total_deliveries = 0

    # ------------------------------------------------------------------ #
    def on_arrival(self, packet_id: int, arrival_slot: int, fanout: int) -> None:
        """Register an accepted packet (every packet, warmup included)."""
        entry = [arrival_slot, fanout, 0, -1]
        if self._pending.setdefault(packet_id, entry) is not entry:
            raise SimulationError(f"packet {packet_id} registered twice")

    def on_delivery(self, delivery: Delivery) -> None:
        """Record one (packet, output) service."""
        packet, output, service = delivery
        self.on_rows(((packet, 1 << output),), service)

    def on_rows(self, rows: Iterable[tuple[Packet, int]], slot: int) -> None:
        """Record a slot's services, one ``(packet, output_mask)`` row per
        grant: ``n`` outputs add ``n`` deliveries and ``n * d``, ``n * d * d``."""
        pending = self._pending
        warmup = self.warmup_slot
        for packet, mask in rows:
            n = mask.bit_count()
            self.total_deliveries += n
            pid = packet.packet_id
            entry = pending.get(pid)
            if entry is None:
                raise SimulationError(f"delivery for unregistered packet {pid}")
            arrival, fanout, delivered, max_service = entry
            if slot < arrival:
                raise SimulationError(
                    f"packet {pid} served at {slot} before arrival {arrival}"
                )
            delivered += n
            if slot > max_service:
                max_service = entry[3] = slot
            counted = arrival >= warmup
            if counted:
                d = slot - arrival + 1
                self.delivery_count += n
                self.delivery_delay_sum += n * d
                self.delivery_delay_sq_sum += n * d * d
                if d > self.max_delivery_delay:
                    self.max_delivery_delay = d
            if delivered == fanout:
                del pending[pid]
                if counted:
                    d = max_service - arrival + 1
                    self.packet_count += 1
                    self.packet_delay_sum += d
                    if d > self.max_packet_delay:
                        self.max_packet_delay = d
            else:
                entry[2] = delivered
                if delivered > fanout:
                    raise SimulationError(
                        f"packet {pid} over-delivered "
                        f"({delivered} > fanout {fanout})"
                    )

    # ------------------------------------------------------------------ #
    @property
    def average_output_delay(self) -> float:
        """Mean per-delivery delay (output oriented). NaN if no samples."""
        if self.delivery_count == 0:
            return float("nan")
        return self.delivery_delay_sum / self.delivery_count

    @property
    def average_input_delay(self) -> float:
        """Mean per-packet last-destination delay (input oriented)."""
        if self.packet_count == 0:
            return float("nan")
        return self.packet_delay_sum / self.packet_count

    @property
    def output_delay_variance(self) -> float:
        """Population variance of per-delivery delay."""
        if self.delivery_count == 0:
            return float("nan")
        mean = self.average_output_delay
        return self.delivery_delay_sq_sum / self.delivery_count - mean * mean

    @property
    def incomplete_packets(self) -> int:
        """Packets with undelivered destinations (the live backlog)."""
        return len(self._pending)

    def pending_cells(self) -> int:
        """Undelivered (packet, destination) pairs (backlog in cells)."""
        return sum(e[1] - e[2] for e in self._pending.values())
