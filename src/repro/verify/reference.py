"""Reference FIFOMS: the paper's Table 1 and Table 2, written straight.

Per input, a buffer of :class:`DataCell` and N VOQs of :class:`AddressCell`.
It imports only the standard library and :mod:`repro.errors`, so the grid
holding production to it (as the ``"object"`` kernel) shares no code with it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.errors import BufferError_, ConfigurationError, SchedulingError

__all__ = ["AddressCell", "DataCell", "ReferenceFIFOMS"]

#: Grants (input -> outputs), grants per round, whether any input requested.
Outcome = tuple[dict[int, list[int]], list[int], bool]


@dataclass(eq=False)
class DataCell:
    """Table 1: the stored packet and its ``fanoutCounter``."""

    packet: Any
    fanout_counter: int


class AddressCell(NamedTuple):
    """Table 1: one destination's ``timeStamp`` and ``pDataCell``."""

    time_stamp: int
    data_cell: DataCell


class ReferenceFIFOMS:
    """N multicast VOQ input ports and the FIFOMS rounds over them."""

    def __init__(self, num_ports: int, *, buffer_capacity: int | None = None,
                 buffer_overflow: str = "raise") -> None:
        if buffer_capacity is not None and buffer_capacity < 1:
            raise ConfigurationError(
                f"buffer capacity must be >= 1, got {buffer_capacity}")
        if buffer_overflow not in ("raise", "drop"):
            raise ConfigurationError("buffer_overflow must be 'raise' or 'drop', "
                                     f"got {buffer_overflow!r}")
        n = self.num_ports = num_ports
        self.capacity, self.overflow = buffer_capacity, buffer_overflow
        #: voqs[i][j]: input i's address cells for output j, oldest first.
        self.voqs: list[list[deque[AddressCell]]] = [
            [deque() for _ in range(n)] for _ in range(n)]
        #: buffer[i]: input i's live data cells, in allocation order.
        self.buffer: list[dict[DataCell, None]] = [{} for _ in range(n)]

    def preprocess(self, packet: Any, slot: int) -> bool:
        """Table 1; False when a full drop-tail buffer refuses the packet."""
        if self.full(packet.input_port):
            if self.overflow == "drop":
                return False
            raise BufferError_(
                f"data-cell buffer overflow: capacity {self.capacity} reached")
        i, cell = packet.input_port, DataCell(packet, len(packet.destinations))
        self.buffer[i][cell] = None
        for j in packet.destinations:
            self.voqs[i][j].append(AddressCell(slot, cell))
        return True

    def full(self, i: int) -> bool:
        """Whether input i's finite buffer holds ``capacity`` data cells."""
        return self.capacity is not None and len(self.buffer[i]) >= self.capacity

    def _request(self, i: int, output_free: list[bool]) -> tuple[int, list[int]]:
        """Input i's oldest HOL time stamp at a free output, and those outputs."""
        heads = [(q[0].time_stamp, j) for j, q in enumerate(self.voqs[i])
                 if q and output_free[j]]
        oldest = min(heads)[0] if heads else -1
        return oldest, [j for ts, j in heads if ts == oldest]

    def fifoms(self, input_free: list[bool], output_free: list[bool],
               tie_break: Callable[[list[int], int], int],
               max_rounds: int | None = None) -> Outcome:
        """Table 2, no accept step; granted ports are marked taken."""
        grants: dict[int, list[int]] = {}
        round_grants: list[int] = []
        while max_rounds is None or len(round_grants) < max_rounds:
            requests: dict[int, list[tuple[int, int]]] = {}  # j -> [(ts, i)]
            for i in range(self.num_ports):
                if input_free[i]:
                    ts, outputs = self._request(i, output_free)
                    for j in outputs:
                        requests.setdefault(j, []).append((ts, i))
            if not requests:
                break
            for j in sorted(requests):
                oldest = min(requests[j])[0]
                winners = [i for ts, i in requests[j] if ts == oldest]
                i = winners[0] if len(winners) == 1 else tie_break(winners, j)
                input_free[i] = output_free[j] = False
                grants.setdefault(i, []).append(j)
            round_grants.append(len(requests))
        return dict(sorted(grants.items())), round_grants, bool(round_grants)

    def no_split(self, input_free: list[bool], output_free: list[bool],
                 order: Callable[[list[Any]], list[Any]]) -> Outcome:
        """No-splitting ablation: oldest packets, as ``order``ed ``(ts, i)``
        offers sorted by ts, get all remaining destinations or nothing."""
        offers = {i: self._request(i, [True] * self.num_ports)
                  for i in range(self.num_ports) if input_free[i] and any(self.voqs[i])}
        grants: dict[int, list[int]] = {}
        candidates = order([(ts, i) for i, (ts, _) in offers.items()]) if offers else []
        for _, i in sorted(candidates, key=lambda offer: offer[0]):
            if all(output_free[j] for j in offers[i][1]):
                grants[i] = offers[i][1]
                input_free[i] = False
                for j in grants[i]:
                    output_free[j] = False
        return grants, [len(grants)] if grants else [], bool(offers)

    def greedy(self, pointer: int) -> dict[int, list[int]]:
        """greedy-mcast: each input from ``pointer`` on takes its request."""
        output_free = [True] * self.num_ports
        grants: dict[int, list[int]] = {}
        for k in range(self.num_ports):
            i = (pointer + k) % self.num_ports
            _, outputs = self._request(i, output_free)
            if outputs:
                grants[i] = outputs
                for j in outputs:
                    output_free[j] = False
        return grants

    def transmit(self, i: int, outputs: list[int]) -> tuple[Any, bool]:
        """Serve one grant: pop its address cells, count ``fanoutCounter``
        down, destroy the data cell at 0. Returns (packet, destroyed)."""
        cells = [self.voqs[i][j].popleft() for j in outputs]
        data = cells[0].data_cell
        if any(cell.data_cell is not data for cell in cells):
            raise SchedulingError(f"input {i} sent two distinct data cells in a slot")
        data.fanout_counter -= len(cells)
        if data.fanout_counter == 0:
            del self.buffer[i][data]
        return data.packet, data.fanout_counter == 0

    def check(self) -> None:
        """Raise SchedulingError unless counters sum to the queued address
        cells, none points at a destroyed data cell, VOQs are in order."""
        for i, voqs in enumerate(self.voqs):
            queued = [cell for q in voqs for cell in q]
            if sum(cell.fanout_counter for cell in self.buffer[i]) != len(queued):
                raise SchedulingError(f"input {i}: fanout counters != queued cells")
            if any(cell.data_cell not in self.buffer[i] for cell in queued):
                raise SchedulingError(f"dangling address cell at input {i}")
            if any(list(q) != sorted(q, key=lambda c: c.time_stamp) for q in voqs):
                raise SchedulingError(f"input {i} has a VOQ out of time-stamp order")
