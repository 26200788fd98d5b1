"""Single-input-queued switch (paper Fig. 1b) — the TATRA/WBA substrate.

One FIFO of (multicast) packets per input port; only the HOL packet of
each input is visible to the scheduler, which is exactly what produces
head-of-line blocking. Fanout splitting is supported: the HOL packet's
*residue* (unserved destinations) stays at the HOL until empty, and only
then does the next packet advance.

The residue state is one row of bitmasks: ``_hol_bits[i]`` holds input
i's unserved HOL destinations (0 when the queue is empty). Schedulers
plug in through ``schedule(view) -> ScheduleDecision`` and read those
bitmasks as they are, listed for the non-empty inputs in a
:class:`~repro.schedulers.base.SIQHolView`.
"""

from __future__ import annotations

from collections import deque

from repro.core.matching import ScheduleDecision
from repro.errors import SchedulingError
from repro.fabric.crossbar import MulticastCrossbar
from repro.packet import Delivery, Packet
from repro.schedulers.base import SIQHolView
from repro.switch.base import BaseSwitch, SlotResult

__all__ = ["SingleInputQueueSwitch"]


def _mask_of(destinations: tuple[int, ...]) -> int:
    mask = 0
    for j in destinations:
        mask |= 1 << j
    return mask


class SingleInputQueueSwitch(BaseSwitch):
    """N×N switch with a single FIFO per input port."""

    name = "siq"

    def __init__(self, num_ports: int, scheduler: object) -> None:
        super().__init__(num_ports)
        self.scheduler = scheduler
        self.crossbar = MulticastCrossbar(num_ports)
        self.queues: list[deque[Packet]] = [deque() for _ in range(num_ports)]
        # Canonical residue state: bit j of _hol_bits[i] = output j still
        # unserved by input i's HOL packet; 0 when the queue is empty.
        self._hol_bits: list[int] = [0] * num_ports
        # Pending (packet, destination) pairs, kept so total_backlog() is
        # O(1) for the per-slot observers that call it.
        self._backlog = 0
        self._peak_queue = [0] * num_ports

    # ------------------------------------------------------------------ #
    def _accept(self, packet: Packet, slot: int) -> None:
        i = packet.input_port
        q = self.queues[i]
        q.append(packet)
        self._backlog += packet.fanout
        if len(q) == 1:
            self._hol_bits[i] = _mask_of(packet.destinations)
        if len(q) > self._peak_queue[i]:
            self._peak_queue[i] = len(q)

    def hol_residue(self, i: int) -> set[int]:
        """Unserved destinations of input i's HOL packet (empty if idle)."""
        bits = self._hol_bits[i]
        return {j for j in range(self.num_ports) if (bits >> j) & 1}

    def hol_view(self, slot: int) -> SIQHolView:
        """This slot's HOL cells, one entry per non-empty input."""
        inputs: list[int] = []
        residue_bits: list[int] = []
        arrivals: list[int] = []
        packet_ids: list[int] = []
        hol_bits = self._hol_bits
        for i, q in enumerate(self.queues):
            if q:
                head = q[0]
                inputs.append(i)
                residue_bits.append(hol_bits[i])
                arrivals.append(head.arrival_slot)
                packet_ids.append(head.packet_id)
        return SIQHolView(
            current_slot=slot,
            inputs=inputs,
            residue_bits=residue_bits,
            arrivals=arrivals,
            packet_ids=packet_ids,
        )

    def _decide(self, slot: int) -> tuple[ScheduleDecision, int]:
        return self.scheduler.schedule(self.hol_view(slot)), 0

    def _transfer(
        self, decision: ScheduleDecision, result: SlotResult, slot: int
    ) -> None:
        for i, grant in decision.grants.items():
            q = self.queues[i]
            if not q:
                raise SchedulingError(f"grant for empty input queue {i}")
            bits = self._hol_bits[i]
            packet = q[0]
            for j in grant.output_ports:
                if not (bits >> j) & 1:
                    raise SchedulingError(
                        f"output {j} granted to input {i} but HOL residue is "
                        f"{sorted(self.hol_residue(i))}"
                    )
                bits &= ~(1 << j)
                result.deliveries.append(
                    Delivery(packet=packet, output_port=j, service_slot=slot)
                )
            self._hol_bits[i] = bits
            self._backlog -= len(grant.output_ports)
            if not bits:
                q.popleft()
                if q:
                    self._hol_bits[i] = _mask_of(q[0].destinations)

    # ------------------------------------------------------------------ #
    def queue_sizes(self) -> list[int]:
        """Packets not fully transferred per input (incl. the HOL residue)."""
        return [len(q) for q in self.queues]

    def total_backlog(self) -> int:
        return self._backlog

    def check_invariants(self) -> None:
        walked = 0
        for i, q in enumerate(self.queues):
            bits = self._hol_bits[i]
            if q:
                if not bits:
                    raise SchedulingError(f"non-empty queue {i} with empty residue")
                if bits & ~_mask_of(q[0].destinations):
                    raise SchedulingError(f"residue of input {i} not a fanout subset")
                walked += bits.bit_count() - q[0].fanout
                walked += sum(p.fanout for p in q)
            elif bits:
                raise SchedulingError(f"empty queue {i} with residue")
        if walked != self._backlog:
            raise SchedulingError(
                f"backlog counter drift: counter says {self._backlog}, "
                f"the queues hold {walked}"
            )
