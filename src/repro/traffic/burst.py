"""Bursty (on/off Markov) multicast traffic — the paper's §V.C model.

Each input port independently alternates between *off* and *on* states of
a two-state Markov chain; transitions happen at the end of every slot:

* off → on with probability ``1 / e_off`` (so off periods average
  ``e_off`` slots);
* on → off with probability ``1 / e_on`` (on periods average ``e_on``).

While on, a packet arrives **every slot**, and all packets of one burst
share a single destination set drawn at burst start with per-output
probability ``b`` (resampled if empty, like the Bernoulli model). This
strong temporal and spatial correlation is what crushes schedulers that
rely on independence — the paper's Fig. 8.

Arrival rate = ``e_on / (e_off + e_on)``; effective load multiplies that
by the exact conditional mean fanout. Chains start in their stationary
distribution so there is no artificial cold-start transient.
"""

from __future__ import annotations

import numpy as np

from repro.packet import Packet
from repro.traffic.base import TrafficModel, binomial_destination_rows
from repro.utils.validation import check_positive, check_probability

__all__ = ["BurstMulticastTraffic"]


class BurstMulticastTraffic(TrafficModel):
    """Two-state Markov-modulated on/off multicast arrivals."""

    def __init__(
        self,
        num_ports: int,
        *,
        e_off: float,
        e_on: float,
        b: float,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(num_ports, rng=rng)
        self.e_off = check_positive(e_off, "e_off")
        self.e_on = check_positive(e_on, "e_on")
        if self.e_off < 1.0 or self.e_on < 1.0:
            # A mean sojourn below one slot is not expressible in a
            # discrete-time chain whose transition probability is 1/E.
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"e_off and e_on must be >= 1 slot, got {e_off}, {e_on}"
            )
        self.b = check_probability(b, "b", allow_zero=False)
        # Stationary start: P(on) = e_on / (e_off + e_on).
        p_on = self.e_on / (self.e_off + self.e_on)
        self._on = self.rng.random(num_ports) < p_on
        self._burst_dests: list[tuple[int, ...] | None] = [
            self._draw_destinations() if on else None for on in self._on
        ]
        self.bursts_started = int(self._on.sum())

    # ------------------------------------------------------------------ #
    def _draw_destinations(self) -> tuple[int, ...]:
        return binomial_destination_rows(self.rng, 1, self.num_ports, self.b, 1)[0]

    def _generate(self, slot: int) -> list[Packet | None]:
        n = self.num_ports
        inputs = np.nonzero(self._on)[0].tolist()
        arrivals = self._arrivals(
            slot, inputs, [self._burst_dests[i] for i in inputs]  # type: ignore[misc]
        )
        # State transitions at the end of the slot (paper: "at the end of
        # each slot, the traffic can switch between off and on states").
        flips = self.rng.random(n)
        for i in range(n):
            if self._on[i]:
                if flips[i] < 1.0 / self.e_on:
                    self._on[i] = False
                    self._burst_dests[i] = None
            else:
                if flips[i] < 1.0 / self.e_off:
                    self._on[i] = True
                    self._burst_dests[i] = self._draw_destinations()
                    self.bursts_started += 1
        return arrivals

    # ------------------------------------------------------------------ #
    @property
    def arrival_rate(self) -> float:
        """Stationary probability an input is on (= packets/slot/input)."""
        return self.e_on / (self.e_off + self.e_on)

    @property
    def average_fanout(self) -> float:
        n, b = self.num_ports, self.b
        return b * n / (1.0 - (1.0 - b) ** n)

    @property
    def effective_load(self) -> float:
        return self.arrival_rate * self.average_fanout
