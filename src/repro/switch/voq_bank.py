"""The N×N unicast virtual-output-queue bank (paper Fig. 1c input ports).

Every switch that queues one FIFO per (input, output) pair — the iSLIP
family's :class:`~repro.switch.voq_unicast.UnicastVOQSwitch`, CIOQ, the
buffered crossbar and the unicast half of ESLIP — holds one
:class:`UnicastVOQBank` and adds only what differs (speedup phases,
crosspoint buffers, a multicast queue). The bank is the single home of
"which VOQs are non-empty and how long they are": the deque grid, the
request bits mask-based arbiters read, per-input backlog counters and
the count matrix PIM, MaxWeight and ESLIP's grant step read.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import SchedulingError
from repro.packet import Packet
from repro.schedulers.base import UnicastVOQView

__all__ = ["UnicastVOQBank"]


class UnicastVOQBank:
    """Deque grid plus the indices schedulers and metrics read off it.

    Attributes
    ----------
    queues:
        ``queues[i][j]`` is the FIFO of packets queued at input i for
        output j. Mutate it only through :meth:`push` / :meth:`pop`.
    cols, rows:
        Request bits as Python ints: bit i of ``cols[j]`` and bit j of
        ``rows[i]`` are set while VOQ (i, j) is non-empty — flipped only
        when a VOQ fills or empties, never recomputed.
    input_backlog:
        Queued cells per input, as plain ints.
    """

    def __init__(self, num_ports: int) -> None:
        n = num_ports
        self.num_ports = n
        self.queues: list[list[deque[Packet]]] = [
            [deque() for _ in range(n)] for _ in range(n)
        ]
        self.cols = [0] * n
        self.rows = [0] * n
        self.input_backlog = [0] * n
        # Built by the first read of ``occupancy``, then kept in step by
        # every push / pop: a switch whose scheduler reads only the
        # request bits never pays for the matrix.
        self._occupancy: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    def push(self, packet: Packet, j: int) -> None:
        """Queue ``packet`` (one unicast copy) at VOQ (its input, j)."""
        i = packet.input_port
        q = self.queues[i][j]
        if not q:
            self.cols[j] |= 1 << i
            self.rows[i] |= 1 << j
        q.append(packet)
        self.input_backlog[i] += 1
        if self._occupancy is not None:
            self._occupancy[i, j] = len(q)

    def pop(self, i: int, j: int) -> Packet:
        """Dequeue and return the HOL packet of VOQ (i, j)."""
        q = self.queues[i][j]
        if not q:
            raise SchedulingError(f"grant for empty VOQ ({i}, {j})")
        packet = q.popleft()
        self.input_backlog[i] -= 1
        if not q:
            self.cols[j] ^= 1 << i
            self.rows[i] ^= 1 << j
        if self._occupancy is not None:
            self._occupancy[i, j] = len(q)
        return packet

    # ------------------------------------------------------------------ #
    @property
    def occupancy(self) -> np.ndarray:
        """``occupancy[i, j]`` = cells queued at VOQ (i, j) (live array)."""
        if self._occupancy is None:
            self._occupancy = np.array(
                [[len(q) for q in row] for row in self.queues], dtype=np.int64
            )
        return self._occupancy

    def view(self, slot: int) -> UnicastVOQView:
        """What a unicast scheduler sees of the bank when scheduling ``slot``."""
        return UnicastVOQView(current_slot=slot, cols=self.cols, bank=self)

    def backlog(self) -> int:
        """Total queued cells."""
        return sum(self.input_backlog)

    def check(self) -> None:
        """Verify every index against the deques, and per-VOQ FIFO order."""
        occ = self._occupancy
        for i, row in enumerate(self.queues):
            if self.input_backlog[i] != sum(len(q) for q in row):
                raise SchedulingError(f"input backlog drift at input {i}")
            for j, q in enumerate(row):
                if bool(q) != bool((self.cols[j] >> i) & 1):
                    raise SchedulingError(f"request-column drift at VOQ ({i}, {j})")
                if bool(q) != bool((self.rows[i] >> j) & 1):
                    raise SchedulingError(f"request-row drift at VOQ ({i}, {j})")
                arrivals = [p.arrival_slot for p in q]
                if arrivals != sorted(arrivals):
                    raise SchedulingError(f"VOQ ({i}, {j}) not FIFO-ordered")
                if occ is not None and len(q) != occ[i, j]:
                    raise SchedulingError(f"occupancy drift at VOQ ({i}, {j})")
