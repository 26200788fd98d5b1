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
"""

from __future__ import annotations

import numpy as np

from repro.packet import Packet
from repro.traffic.base import TrafficModel, binomial_destination_rows
from repro.utils.validation import check_probability

__all__ = ["BernoulliMulticastTraffic"]


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
    def _generate(self, slot: int) -> list[Packet | None]:
        n = self.num_ports
        inputs = np.nonzero(self.rng.random(n) < self.p)[0].tolist()
        # A packet must have >= 1 destination: empty rows are skipped.
        dests = binomial_destination_rows(self.rng, len(inputs), n, self.b, 1)
        return self._arrivals(slot, inputs, dests)

    # ------------------------------------------------------------------ #
    @property
    def average_fanout(self) -> float:
        n, b = self.num_ports, self.b
        return b * n / (1.0 - (1.0 - b) ** n)

    @property
    def effective_load(self) -> float:
        return self.p * self.average_fanout
