"""Classic N² unicast VOQ switch (paper Fig. 1c) for iSLIP/PIM/MaxWeight.

Multicast handling follows the paper's iSLIP setup exactly: "iSLIP
schedules a multicast packet as separate (independent) unicast packets" —
at arrival, a fanout-k packet is copied into k VOQs and each copy owns its
own data cell. The queue-size metric therefore counts every copy, which
is precisely the replication cost the paper's address/data-cell split is
designed to avoid.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.matching import ScheduleDecision
from repro.errors import SchedulingError
from repro.fabric.crossbar import MulticastCrossbar
from repro.packet import Delivery, Packet
from repro.schedulers.base import UnicastVOQView
from repro.switch.base import BaseSwitch, SlotResult

__all__ = ["UnicastVOQSwitch"]


class UnicastVOQSwitch(BaseSwitch):
    """N×N VOQ switch scheduling one-to-one matchings per slot.

    Parameters
    ----------
    num_ports:
        N.
    scheduler:
        Object exposing ``schedule(view: UnicastVOQView) ->
        ScheduleDecision`` where every grant set has fanout 1 (enforced).
    """

    name = "unicast-voq"

    def __init__(self, num_ports: int, scheduler: object) -> None:
        super().__init__(num_ports)
        self.scheduler = scheduler
        self.crossbar = MulticastCrossbar(num_ports)
        # queues[i][j] holds (packet, arrival_slot) unicast copies.
        self.queues: list[list[deque[Packet]]] = [
            [deque() for _ in range(num_ports)] for _ in range(num_ports)
        ]
        # Incrementally-maintained scheduler view arrays.
        self._occupancy = np.zeros((num_ports, num_ports), dtype=np.int64)
        self._hol_arrival = np.full((num_ports, num_ports), -1, dtype=np.int64)
        # Accepted copies accumulate as flat VOQ indices (and new-HOL
        # writes as coordinate lists) and fold into the view matrices in
        # one bincount/fancy write per slot instead of one numpy scalar
        # read-modify-write per copy; per-input backlog for queue_sizes()
        # is tracked as plain ints.
        self._pend_flat: list[int] = []
        self._pend_hol_r: list[int] = []
        self._pend_hol_c: list[int] = []
        self._pend_hol_v: list[int] = []
        self._input_backlog = [0] * num_ports
        # Request columns for mask-based arbiters: bit i of _cols[j] is
        # set while VOQ (i, j) is non-empty. One bit flip when a copy
        # lands in an empty VOQ or a pop empties one — no per-slot pass.
        self._cols = [0] * num_ports

    # ------------------------------------------------------------------ #
    def _flush_pending(self) -> None:
        """Fold pending accepted copies into the scheduler view arrays."""
        n = self.num_ports
        if self._pend_flat:
            counts = np.bincount(self._pend_flat, minlength=n * n)
            self._occupancy += counts.reshape(n, n)
            self._pend_flat.clear()
        if self._pend_hol_r:
            self._hol_arrival[self._pend_hol_r, self._pend_hol_c] = self._pend_hol_v
            self._pend_hol_r.clear()
            self._pend_hol_c.clear()
            self._pend_hol_v.clear()

    def _accept(self, packet: Packet, slot: int) -> None:
        i = packet.input_port
        base = i * self.num_ports
        for j in packet.destinations:
            q = self.queues[i][j]
            if not q:
                self._pend_hol_r.append(i)
                self._pend_hol_c.append(j)
                self._pend_hol_v.append(packet.arrival_slot)
                self._cols[j] |= 1 << i
            q.append(packet)
            self._pend_flat.append(base + j)
        self._input_backlog[i] += packet.fanout

    def _decide(self, slot: int) -> tuple[ScheduleDecision, int]:
        self._flush_pending()
        view = UnicastVOQView(
            occupancy=self._occupancy,
            hol_arrival=self._hol_arrival,
            current_slot=slot,
            cols=self._cols,
        )
        return self.scheduler.schedule(view), 0

    def _transfer(
        self, decision: ScheduleDecision, result: SlotResult, slot: int
    ) -> None:
        """Pop the granted HOL cells and batch the view-array bookkeeping.

        The deque pops and :class:`~repro.packet.Delivery` records are
        per-grant; the view arrays take one fancy-indexed decrement of
        the occupancy matrix and one fancy-indexed HOL-arrival refill
        instead of two numpy scalar read-modify-writes per grant.
        """
        if not decision.grants:
            return
        rows: list[int] = []
        cols: list[int] = []
        refill: list[int] = []
        deliveries = result.deliveries
        for i, grant in decision.grants.items():
            if grant.fanout != 1:
                raise SchedulingError(
                    f"unicast scheduler granted fanout {grant.fanout} to input {i}"
                )
            j = grant.output_ports[0]
            q = self.queues[i][j]
            if not q:
                raise SchedulingError(f"grant for empty VOQ ({i}, {j})")
            packet = q.popleft()
            rows.append(i)
            cols.append(j)
            if q:
                refill.append(q[0].arrival_slot)
            else:
                refill.append(-1)
                self._cols[j] &= ~(1 << i)
            deliveries.append(
                Delivery(packet=packet, output_port=j, service_slot=slot)
            )
        backlog = self._input_backlog
        for i in rows:
            backlog[i] -= 1
        self._occupancy[rows, cols] -= 1
        self._hol_arrival[rows, cols] = refill

    # ------------------------------------------------------------------ #
    def queue_sizes(self) -> list[int]:
        """Queued unicast copies per input (each copy owns a data cell)."""
        return list(self._input_backlog)

    def total_backlog(self) -> int:
        return sum(self._input_backlog)

    def check_invariants(self) -> None:
        self._flush_pending()
        for i, backlog in enumerate(self._input_backlog):
            if backlog != int(self._occupancy[i].sum()):
                raise SchedulingError(f"input backlog drift at input {i}")
        for i in range(self.num_ports):
            for j in range(self.num_ports):
                q = self.queues[i][j]
                if len(q) != self._occupancy[i, j]:
                    raise SchedulingError(f"occupancy drift at VOQ ({i}, {j})")
                expected = q[0].arrival_slot if q else -1
                if expected != self._hol_arrival[i, j]:
                    raise SchedulingError(f"HOL-arrival drift at VOQ ({i}, {j})")
                arrivals = [p.arrival_slot for p in q]
                if arrivals != sorted(arrivals):
                    raise SchedulingError(f"VOQ ({i}, {j}) not FIFO-ordered")
                if bool(q) != bool((self._cols[j] >> i) & 1):
                    raise SchedulingError(
                        f"request-column drift at VOQ ({i}, {j})"
                    )
