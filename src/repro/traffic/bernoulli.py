"""Bernoulli multicast traffic — the paper's §V.A model.

Two parameters:

* ``p`` — probability that an input port has a packet arriving in a slot;
* ``b`` — probability that each output port, independently, is a
  destination of that packet.

The paper quotes average fanout ``b·N`` and effective load ``p·b·N``,
which ignores the (1−b)^N chance of an empty destination vector. We
resample empty draws (a packet must go somewhere), making the exact mean
fanout ``b·N / (1 − (1−b)^N)``; :attr:`average_fanout` reports the exact
value and :func:`repro.analysis.loads.bernoulli_arrival_probability`
inverts it so sweeps land on the intended effective load (DESIGN.md §5,
substitution 2).

The stream is a sequence of N-wide rows of uniforms: a slot's *input
row* (``< p`` marks the inputs with an arrival), then, per arrival in
input order, *destination rows* (``< b``) until one has a hit — empty
rows are skipped. :meth:`BernoulliMulticastTraffic.next_slots` draws a
whole window's rows in capped blocks, classifies them in one scan and
rewinds the generator to just past the last row it used, so any split
of a run into windows reads the same numbers and leaves the same
generator state (docs/architecture.md, "Traffic RNG-stream contract").
"""

from __future__ import annotations

import numpy as np

from repro.packet import Packet
from repro.traffic.base import TrafficModel
from repro.utils.validation import check_probability

__all__ = ["BernoulliMulticastTraffic"]

#: Most doubles one block draw may hold (128 KiB of float64). At N = 256
#: a block is 64 rows, about four slots; twice that raised the scale
#: workload's peak RSS and ran no faster (docs/perf_log.md).
BLOCK_DOUBLES = 1 << 14


class BernoulliMulticastTraffic(TrafficModel):
    """i.i.d. Bernoulli arrivals with binomial destination vectors."""

    def __init__(
        self,
        num_ports: int,
        *,
        p: float,
        b: float,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(num_ports, rng=rng)
        self.p = check_probability(p, "p")
        self.b = check_probability(b, "b", allow_zero=False)

    # ------------------------------------------------------------------ #
    def next_slots(self, k: int) -> list[list[Packet | None]]:
        first = self._next_slot
        self._next_slot = first + k
        return self._window(first, k)

    def _generate(self, slot: int) -> list[Packet | None]:
        return self._window(slot, 1)[0]

    def _window(self, first: int, k: int) -> list[list[Packet | None]]:
        """The lanes of slots ``first .. first + k - 1``."""
        n, p, b = self.num_ports, self.p, self.b
        rng = self.rng
        bit_generator = rng.bit_generator
        cap = max(1, BLOCK_DOUBLES // n)
        # Blocks are sized to the rows the rest of the window should need.
        accept = 1.0 - (1.0 - b) ** n  # chance a row has a destination
        rows_per_packet = 1.0 / accept if accept else float(cap)
        rows_per_slot = 1.0 + p * n * rows_per_packet
        low, high = sorted((p, b))
        lanes: list[list[Packet | None]] = []
        slot, end = first, first + k
        lane: list[Packet | None] = []
        inputs: list[int] = []
        pending = 0  # destination rows the open slot still needs
        packets = cells = 0
        while slot < end:
            need = (end - slot) * rows_per_slot + pending * rows_per_packet
            rows = int(min(cap, need + 2.0 * need**0.5 + 1.0))
            saved = bit_generator.state
            block = rng.random((rows, n))
            # One full compare, at the larger threshold: the hits of the
            # smaller one are a subset of its hits.
            hits = np.flatnonzero(block < high)
            sub = hits[block.ravel()[hits] < low]
            hits_p, hits_b = (sub, hits) if p <= b else (hits, sub)
            bounds = np.arange(0, (rows + 1) * n, n)
            off_p = hits_p.searchsorted(bounds).tolist()
            off_b = hits_b.searchsorted(bounds).tolist()
            cols_p = (hits_p % n).tolist()
            cols_b = (hits_b % n).tolist()
            for row in range(rows):
                if pending:  # the destination row of inputs[-pending]
                    start, stop = off_b[row], off_b[row + 1]
                    if start == stop:
                        continue  # empty: the packet redraws
                    i = inputs[-pending]
                    lane[i] = Packet(i, tuple(cols_b[start:stop]), slot)
                    cells += stop - start
                    pending -= 1
                    if pending:
                        continue
                else:  # the input row of ``slot``
                    lane = [None] * n
                    inputs = cols_p[off_p[row]:off_p[row + 1]]
                    pending = len(inputs)
                    if pending:
                        packets += pending
                        continue
                lanes.append(lane)
                slot += 1
                if slot == end:
                    if row + 1 < rows:
                        # Rewind: redraw only the rows used (same numbers).
                        bit_generator.state = saved
                        rng.random(out=block[: row + 1])
                    break
        self.packets_generated += packets
        self.cells_generated += cells
        return lanes

    # ------------------------------------------------------------------ #
    @property
    def average_fanout(self) -> float:
        n, b = self.num_ports, self.b
        return b * n / (1.0 - (1.0 - b) ** n)

    @property
    def effective_load(self) -> float:
        return self.p * self.average_fanout
