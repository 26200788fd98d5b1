"""Output-queued switch with FIFO service — the paper's OQFIFO benchmark.

The OQ architecture (paper Fig. 1a) buffers blocked packets at the
*outputs*: an arriving packet is written into every destination's output
queue within its arrival slot, which implicitly requires the fabric and
output memories to run N times faster than the line rate (the scalability
problem that motivates input queueing). Each output then serves its FIFO
at one cell per slot.

OQFIFO is work-conserving and delay-optimal among FIFO disciplines, which
is why the paper uses it as the "ultimate performance benchmark" despite
its impractical speedup requirement.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SchedulingError
from repro.packet import Delivery, Packet
from repro.switch.base import BaseSwitch, SlotResult

__all__ = ["OutputQueuedSwitch"]


class OutputQueuedSwitch(BaseSwitch):
    """N×N output-queued switch, FIFO per output, speedup N emulated.

    OQFIFO has no matching computation — the FIFOs of packet objects are
    the whole switch — so the deques are the only state and occupancy is
    ``len(q)``.
    """

    name = "oqfifo"
    #: No input-side matching at all (speedup-N emulation): each output
    #: serves its own FIFO, so only the per-output-line bound applies.
    matching_discipline = "output"

    def __init__(self, num_ports: int) -> None:
        super().__init__(num_ports)
        self.queues: list[deque[Packet]] = [deque() for _ in range(num_ports)]

    # ------------------------------------------------------------------ #
    def _accept(self, packet: Packet, slot: int) -> None:
        # Speedup-N fabric: the packet reaches every destination queue
        # within its arrival slot.
        queues = self.queues
        for j in packet.destinations:
            queues[j].append(packet)

    def _schedule_and_transmit(self, slot: int) -> SlotResult:
        result = SlotResult(slot=slot, rounds=0, requests_made=False)
        deliveries = result.deliveries
        for j, q in enumerate(self.queues):
            if q:
                deliveries.append(
                    Delivery(packet=q.popleft(), output_port=j, service_slot=slot)
                )
        return result

    # ------------------------------------------------------------------ #
    def queue_sizes(self) -> list[int]:
        """Cells per *output* queue (this architecture has no input
        buffers; see DESIGN.md §5, item 9)."""
        return [len(q) for q in self.queues]

    def total_backlog(self) -> int:
        return sum(len(q) for q in self.queues)

    def check_invariants(self) -> None:
        for j, q in enumerate(self.queues):
            arrivals = [p.arrival_slot for p in q]
            if arrivals != sorted(arrivals):
                raise SchedulingError(f"output queue {j} not FIFO-ordered")
