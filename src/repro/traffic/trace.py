"""Deterministic trace playback.

Feeds a pre-built list of packets into the engine — the workhorse of unit
and property tests (hand-crafted adversarial scenarios, hypothesis-drawn
traces) and of trace-driven experiments. Also provides
:func:`record_trace` to capture any stochastic model into a replayable
trace, which is how the backend parity tests pin both kernel backends to
the identical arrival sequence.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import TrafficError
from repro.packet import Packet
from repro.traffic.base import TrafficModel

__all__ = ["TraceTraffic", "record_trace"]


class TraceTraffic(TrafficModel):
    """Replay an explicit packet list, slot by slot."""

    def __init__(self, num_ports: int, packets: Iterable[Packet]) -> None:
        super().__init__(num_ports, rng=0)
        self._by_slot: dict[int, list[Packet]] = {}
        total_cells = 0
        count = 0
        for pkt in packets:
            if pkt.input_port >= num_ports:
                raise TrafficError(
                    f"trace packet on input {pkt.input_port} for an "
                    f"{num_ports}-port switch"
                )
            if pkt.destinations[-1] >= num_ports:
                raise TrafficError(
                    f"trace packet destination {pkt.destinations[-1]} out of "
                    f"range for {num_ports} ports"
                )
            lane = self._by_slot.setdefault(pkt.arrival_slot, [])
            if any(other.input_port == pkt.input_port for other in lane):
                raise TrafficError(
                    f"two trace packets on input {pkt.input_port} at slot "
                    f"{pkt.arrival_slot}"
                )
            lane.append(pkt)
            total_cells += pkt.fanout
            count += 1
        self._count = count
        self._total_cells = total_cells
        self.horizon = 1 + max(self._by_slot, default=-1)

    # ------------------------------------------------------------------ #
    def _generate(self, slot: int) -> list[Packet | None]:
        arrivals: list[Packet | None] = [None] * self.num_ports
        for pkt in self._by_slot.get(slot, ()):
            arrivals[pkt.input_port] = pkt
        return self._counted(arrivals)

    # ------------------------------------------------------------------ #
    @property
    def average_fanout(self) -> float:
        return self._total_cells / self._count if self._count else 0.0

    @property
    def effective_load(self) -> float:
        if self.horizon == 0:
            return 0.0
        return self._total_cells / (self.horizon * self.num_ports)


def record_trace(model: TrafficModel, num_slots: int) -> list[Packet]:
    """Run ``model`` for ``num_slots`` and return the flat packet list.

    The recorded list replays identically through :class:`TraceTraffic`
    (same packet objects, same slots) — the bridge between stochastic
    models and deterministic replay.
    """
    if num_slots < 0:
        raise TrafficError(f"num_slots must be >= 0, got {num_slots}")
    packets: list[Packet] = []
    for _ in range(num_slots):
        packets.extend(p for p in model.next_slot() if p is not None)
    return packets
