"""Abstract traffic model interface.

A traffic model is a stateful generator: :meth:`TrafficModel.next_slot`
returns the next slot's arrival lanes, one per input port (``None`` = no
arrival), and :meth:`TrafficModel.next_slots` the next ``k`` slots' at
once; any mix of the two yields the same slots in order. Models own
their RNG stream so that a (model, seed) pair deterministically
reproduces the same arrival sequence regardless of what the switch does
with it.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.packet import Packet
from repro.utils.rng import make_rng
from repro.utils.validation import check_port_count

__all__ = ["TrafficModel", "binomial_destination_rows"]


def binomial_destination_rows(
    rng: np.random.Generator, rows: int, n: int, b: float, min_hits: int
) -> list[tuple[int, ...]]:
    """The next ``rows`` destination sets with at least ``min_hits`` outputs.

    The stream is read as consecutive n-wide rows of ``rng.random(n) < b``;
    rows with too few hits are skipped. Drawing the whole shortfall per
    call consumes exactly the rows a one-row-at-a-time redraw loop would.
    """
    out: list[tuple[int, ...]] = []
    while len(out) < rows:
        need = rows - len(out)
        row_of, hit_outputs = (rng.random((need, n)) < b).nonzero()
        outputs = hit_outputs.tolist()
        end = 0
        for hits in np.bincount(row_of, minlength=need).tolist():
            start, end = end, end + hits
            if hits >= min_hits:
                out.append(tuple(outputs[start:end]))
    return out


class TrafficModel(abc.ABC):
    """Base class for per-slot arrival processes."""

    def __init__(
        self, num_ports: int, *, rng: int | np.random.Generator | None = None
    ) -> None:
        self.num_ports = check_port_count(num_ports)
        self.rng = make_rng(rng)
        self._next_slot = 0
        self.packets_generated = 0
        self.cells_generated = 0  # sum of fanouts

    # ------------------------------------------------------------------ #
    def next_slot(self) -> list[Packet | None]:
        """Arrivals for the next slot (index = input port)."""
        slot = self._next_slot
        self._next_slot += 1
        return self._generate(slot)

    def next_slots(self, k: int) -> list[list[Packet | None]]:
        """Arrivals for the next ``k`` slots, in slot order.

        The same lanes, counters and RNG state as ``k`` calls of
        :meth:`next_slot`, which is what this default does; a model
        overrides it only to draw a window in fewer calls.
        """
        return [self.next_slot() for _ in range(k)]

    def _arrivals(
        self, slot: int, inputs: list[int], dests: list[tuple[int, ...]]
    ) -> list[Packet | None]:
        """Build and count the slot's lanes: ``inputs[k]`` sends to ``dests[k]``."""
        arrivals: list[Packet | None] = [None] * self.num_ports
        cells = 0
        for i, d in zip(inputs, dests):
            arrivals[i] = Packet(i, d, slot)
            cells += len(d)
        self.packets_generated += len(inputs)
        self.cells_generated += cells
        return arrivals

    def _counted(self, arrivals: list[Packet | None]) -> list[Packet | None]:
        """Count lanes whose packets were built elsewhere (replays, taggers)."""
        for pkt in arrivals:
            if pkt is not None:
                self.packets_generated += 1
                self.cells_generated += len(pkt.destinations)
        return arrivals

    @property
    def slots_generated(self) -> int:
        return self._next_slot

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _generate(self, slot: int) -> list[Packet | None]:
        """Produce the arrivals of ``slot`` (may mutate internal state),
        counted: return through :meth:`_arrivals` (fresh draws, built and
        counted in one pass) or :meth:`_counted` (forwarded packets)."""

    @property
    @abc.abstractmethod
    def average_fanout(self) -> float:
        """Analytic mean fanout of a generated packet."""

    @property
    @abc.abstractmethod
    def effective_load(self) -> float:
        """Analytic offered load normalized to output capacity.

        Defined as (mean cells generated per input per slot) — equal to
        the mean cells *destined per output* per slot when destinations
        are symmetric, which all built-in models are. 1.0 saturates an
        ideal switch.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(N={self.num_ports}, "
            f"load={self.effective_load:.3f}, fanout={self.average_fanout:.2f})"
        )
