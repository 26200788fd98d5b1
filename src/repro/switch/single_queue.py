"""Single-input-queued switch (paper Fig. 1b) — the TATRA/SIQ-FIFO substrate.

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
from repro.packet import Packet
from repro.schedulers.base import SIQHolView
from repro.switch.base import BaseSwitch, SlotResult
from repro.utils.bitsets import iter_bits

__all__ = ["SingleInputQueueSwitch"]


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
            self._hol_bits[i] = packet.destination_mask
        if len(q) > self._peak_queue[i]:
            self._peak_queue[i] = len(q)

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
        hol_bits = self._hol_bits
        for i, mask in decision.masks.items():
            q = self.queues[i]
            if not q:
                raise SchedulingError(f"grant for empty input queue {i}")
            bits = hol_bits[i]
            stray = mask & ~bits
            if stray:
                raise SchedulingError(
                    f"output {(stray & -stray).bit_length() - 1} granted to "
                    f"input {i} but HOL residue is {list(iter_bits(bits))}"
                )
            result.rows.append((q[0], mask))
            served = mask.bit_count()
            result.cells_delivered += served
            bits ^= mask
            hol_bits[i] = bits
            self._backlog -= served
            if not bits:
                q.popleft()
                if q:
                    hol_bits[i] = q[0].destination_mask

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
                if bits & ~q[0].destination_mask:
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
