"""Hotspot (non-uniform destination) traffic — an extension model.

The paper proves FIFOMS reaches 100% throughput under *uniformly
distributed* traffic; this model exists to probe beyond that assumption.
Destinations are drawn from an explicit probability vector instead of
uniformly: a configurable ``hotspot_fraction`` of each packet's
destination mass concentrates on ``num_hotspots`` favored outputs.

Arrivals are Bernoulli(``p``) with fanout uniform on {1, ..,
``max_fanout``}; the fanout destinations are sampled without replacement
from the skewed distribution.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.packet import Packet
from repro.traffic.base import TrafficModel
from repro.utils.validation import check_probability

__all__ = ["HotspotTraffic"]


class HotspotTraffic(TrafficModel):
    """Bernoulli arrivals with destinations skewed toward hot outputs."""

    def __init__(
        self,
        num_ports: int,
        *,
        p: float,
        max_fanout: int,
        num_hotspots: int = 1,
        hotspot_fraction: float = 0.5,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(num_ports, rng=rng)
        self.p = check_probability(p, "p")
        if not 1 <= max_fanout <= num_ports:
            raise ConfigurationError(
                f"max_fanout must be in [1, {num_ports}], got {max_fanout}"
            )
        if not 1 <= num_hotspots <= num_ports:
            raise ConfigurationError(
                f"num_hotspots must be in [1, {num_ports}], got {num_hotspots}"
            )
        self.max_fanout = max_fanout
        self.num_hotspots = num_hotspots
        self.hotspot_fraction = check_probability(hotspot_fraction, "hotspot_fraction")
        probs = np.full(num_ports, (1.0 - self.hotspot_fraction) / num_ports)
        probs[:num_hotspots] += self.hotspot_fraction / num_hotspots
        self.destination_probs = probs / probs.sum()

    # ------------------------------------------------------------------ #
    def _generate(self, slot: int) -> list[Packet | None]:
        n = self.num_ports
        inputs = np.nonzero(self.rng.random(n) < self.p)[0].tolist()
        dests = []
        for _ in inputs:
            fanout = int(self.rng.integers(1, self.max_fanout + 1))
            picked = self.rng.choice(
                n, size=fanout, replace=False, p=self.destination_probs
            )
            dests.append(tuple(sorted(picked.tolist())))
        return self._arrivals(slot, inputs, dests)

    # ------------------------------------------------------------------ #
    @property
    def average_fanout(self) -> float:
        return (1 + self.max_fanout) / 2.0

    @property
    def effective_load(self) -> float:
        """Port-averaged load; the hot outputs individually see more."""
        return self.p * self.average_fanout

    def hottest_output_load(self) -> float:
        """Offered load of the most-loaded output port.

        Approximates the without-replacement draw by the marginal
        inclusion probability ``fanout · prob`` (exact for fanout 1,
        slightly high otherwise) — used to pick sweep ranges that keep the
        hotspot subcritical.
        """
        return float(
            self.p
            * self.average_fanout
            * self.num_ports
            * self.destination_probs.max()
        )
