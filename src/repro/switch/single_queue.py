"""Single-input-queued switch (paper Fig. 1b) — the TATRA/WBA substrate.

One FIFO of (multicast) packets per input port; only the HOL packet of
each input is visible to the scheduler, which is exactly what produces
head-of-line blocking. Fanout splitting is supported: the HOL packet's
*residue* (unserved destinations) stays at the HOL until empty, and only
then does the next packet advance.

The canonical residue state is one SoA row: ``_hol_bits[i]`` is the
bitmask of input i's unserved HOL destinations (0 when the queue is
empty). Object-path schedulers plug in through ``schedule(hol_cells,
slot) -> ScheduleDecision`` over :class:`~repro.schedulers.base.SIQHolCell`
snapshots derived from the bitmasks; the vectorized kernel backend gets
the bitmasks directly as a :class:`~repro.schedulers.base.SIQHolView`,
so no per-cell objects or residue sets are materialized per slot.
"""

from __future__ import annotations

from collections import deque

from repro.core.matching import ScheduleDecision
from repro.errors import SchedulingError
from repro.fabric.crossbar import MulticastCrossbar
from repro.packet import Delivery, Packet
from repro.schedulers.base import SIQHolCell, SIQHolView, resolve_backend
from repro.switch.base import BaseSwitch, SlotResult

__all__ = ["SingleInputQueueSwitch"]


def _mask_of(destinations: tuple[int, ...]) -> int:
    mask = 0
    for j in destinations:
        mask |= 1 << j
    return mask


class SingleInputQueueSwitch(BaseSwitch):
    """N×N switch with a single FIFO per input port.

    ``backend="vectorized"`` routes scheduling through the scheduler's
    ``schedule_vectorized`` entry point (the scheduler must declare
    support via ``supported_backends``), handing it the switch's own
    SoA residue state as a :class:`~repro.schedulers.base.SIQHolView`;
    the queue contents are identical under both backends. Left unset
    (``None``, the default) ``backend`` is the scheduler's preferred
    declared body: ``"vectorized"`` for WBA and SIQ-FIFO, ``"object"``
    for TATRA, which declares itself object-only.
    """

    name = "siq"

    def __init__(
        self, num_ports: int, scheduler: object, *, backend: str | None = None
    ) -> None:
        super().__init__(num_ports)
        self.scheduler = scheduler
        self.backend = resolve_backend(scheduler, backend)
        self.crossbar = MulticastCrossbar(num_ports)
        self.queues: list[deque[Packet]] = [deque() for _ in range(num_ports)]
        # Canonical residue state: bit j of _hol_bits[i] = output j still
        # unserved by input i's HOL packet; 0 when the queue is empty.
        self._hol_bits: list[int] = [0] * num_ports
        self._peak_queue = [0] * num_ports

    # ------------------------------------------------------------------ #
    def _accept(self, packet: Packet, slot: int) -> None:
        i = packet.input_port
        q = self.queues[i]
        q.append(packet)
        if len(q) == 1:
            self._hol_bits[i] = _mask_of(packet.destinations)
        if len(q) > self._peak_queue[i]:
            self._peak_queue[i] = len(q)

    def hol_residue(self, i: int) -> set[int]:
        """Unserved destinations of input i's HOL packet (empty if idle)."""
        bits = self._hol_bits[i]
        return {j for j in range(self.num_ports) if (bits >> j) & 1}

    def hol_cells(self) -> list[SIQHolCell]:
        """Snapshot of the HOL packet of every non-empty input queue."""
        cells = []
        for i, q in enumerate(self.queues):
            if q:
                pkt = q[0]
                cells.append(
                    SIQHolCell(
                        input_port=i,
                        remaining=frozenset(self.hol_residue(i)),
                        arrival_slot=pkt.arrival_slot,
                        packet_id=pkt.packet_id,
                    )
                )
        return cells

    def hol_view(self, slot: int) -> SIQHolView:
        """SoA view of the HOL state for the vectorized kernel backend."""
        inputs: list[int] = []
        residue_bits: list[int] = []
        arrivals: list[int] = []
        hol_bits = self._hol_bits
        for i, q in enumerate(self.queues):
            if q:
                inputs.append(i)
                residue_bits.append(hol_bits[i])
                arrivals.append(q[0].arrival_slot)
        return SIQHolView(
            num_ports=self.num_ports,
            current_slot=slot,
            inputs=inputs,
            residue_bits=residue_bits,
            arrivals=arrivals,
        )

    def _decide(self, slot: int) -> tuple[ScheduleDecision, int]:
        if self.backend == "vectorized":
            return self.scheduler.schedule_vectorized(self.hol_view(slot)), 0
        return self.scheduler.schedule(self.hol_cells(), slot), 0

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
            if not bits:
                q.popleft()
                if q:
                    self._hol_bits[i] = _mask_of(q[0].destinations)

    # ------------------------------------------------------------------ #
    def queue_sizes(self) -> list[int]:
        """Packets not fully transferred per input (incl. the HOL residue)."""
        return [len(q) for q in self.queues]

    def total_backlog(self) -> int:
        total = 0
        for i, q in enumerate(self.queues):
            if not q:
                continue
            total += self._hol_bits[i].bit_count()
            total += sum(p.fanout for k, p in enumerate(q) if k > 0)
        return total

    def check_invariants(self) -> None:
        for i, q in enumerate(self.queues):
            bits = self._hol_bits[i]
            if q:
                if not bits:
                    raise SchedulingError(f"non-empty queue {i} with empty residue")
                if bits & ~_mask_of(q[0].destinations):
                    raise SchedulingError(f"residue of input {i} not a fanout subset")
            elif bits:
                raise SchedulingError(f"empty queue {i} with residue")
