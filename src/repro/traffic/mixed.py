"""Mixed unicast/multicast traffic.

The paper's introduction motivates FIFOMS with traffic that mixes unicast
and multicast packets (it is where TATRA's HOL blocking hurts most). This
model makes the mix explicit: arrivals are Bernoulli with probability
``p``; each packet is unicast with probability ``unicast_fraction``
(uniform single destination) and otherwise multicast with a binomial
destination vector of per-output probability ``b`` conditioned on fanout
>= 2 (so the two classes are disjoint).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.packet import Packet
from repro.traffic.base import TrafficModel, binomial_destination_rows
from repro.utils.validation import check_probability

__all__ = ["MixedTraffic"]


class MixedTraffic(TrafficModel):
    """Bernoulli arrivals, unicast with prob. f, multicast otherwise."""

    def __init__(
        self,
        num_ports: int,
        *,
        p: float,
        unicast_fraction: float,
        b: float,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(num_ports, rng=rng)
        self.p = check_probability(p, "p")
        self.unicast_fraction = check_probability(unicast_fraction, "unicast_fraction")
        self.b = check_probability(b, "b", allow_zero=False)
        if num_ports < 2 and self.unicast_fraction < 1.0:
            raise ConfigurationError(
                "multicast packets need >= 2 destinations: num_ports=1 "
                f"requires unicast_fraction=1, got {unicast_fraction}"
            )

    # ------------------------------------------------------------------ #
    def _generate(self, slot: int) -> list[Packet | None]:
        n = self.num_ports
        rng = self.rng
        inputs = np.nonzero(rng.random(n) < self.p)[0].tolist()
        dests: list[tuple[int, ...]] = []
        for _ in inputs:
            if rng.random() < self.unicast_fraction:
                dests.append((int(rng.integers(n)),))
            else:  # multicast means >= 2 destinations
                dests += binomial_destination_rows(rng, 1, n, self.b, 2)
        return self._arrivals(slot, inputs, dests)

    # ------------------------------------------------------------------ #
    @property
    def _multicast_mean_fanout(self) -> float:
        """E[fanout | fanout >= 2] for the binomial destination vector."""
        n, b = self.num_ports, self.b
        p0 = (1.0 - b) ** n
        p1 = n * b * (1.0 - b) ** (n - 1)
        # E[X · 1{X>=2}] = E[X] − 1·P(X=1) = nb − p1, normalized by P(X>=2).
        return (n * b - p1) / (1.0 - p0 - p1)

    @property
    def average_fanout(self) -> float:
        f = self.unicast_fraction
        if f == 1.0:  # the multicast mean is 0/0 on a 1-port switch
            return 1.0
        return f * 1.0 + (1.0 - f) * self._multicast_mean_fanout

    @property
    def effective_load(self) -> float:
        return self.p * self.average_fanout
