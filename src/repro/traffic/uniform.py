"""Uniform-fanout traffic — the paper's §V.B model.

Two parameters:

* ``p`` — probability an input port has an arrival in a slot;
* ``max_fanout`` — fanout is uniform on {1, ..., max_fanout}, and the
  destinations are drawn uniformly **without replacement** from the N
  outputs.

Average fanout is exactly ``(1 + max_fanout) / 2`` and effective load
``p · (1 + max_fanout) / 2``. With ``max_fanout=1`` this degenerates to
the classic uniform unicast Bernoulli model of Fig. 6.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.packet import Packet
from repro.traffic.base import TrafficModel
from repro.utils.validation import check_probability

__all__ = ["UniformFanoutTraffic"]


class UniformFanoutTraffic(TrafficModel):
    """Bernoulli arrivals with bounded uniformly-distributed fanout."""

    def __init__(
        self,
        num_ports: int,
        *,
        p: float,
        max_fanout: int,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(num_ports, rng=rng)
        self.p = check_probability(p, "p")
        # type(), not isinstance(): True is an int but not a fanout.
        if type(max_fanout) is not int or not 1 <= max_fanout <= num_ports:
            raise ConfigurationError(
                f"max_fanout must be an int in [1, {num_ports}], got {max_fanout!r}"
            )
        self.max_fanout = max_fanout

    # ------------------------------------------------------------------ #
    def _generate(self, slot: int) -> list[Packet | None]:
        n = self.num_ports
        rng = self.rng
        inputs = np.nonzero(rng.random(n) < self.p)[0].tolist()
        dests: list[tuple[int, ...]]
        if self.max_fanout == 1:
            # Per packet, integers(1, 2) consumes nothing and a size-1
            # choice is one bounded draw: the slot is one integers() call.
            dests = [(j,) for j in rng.integers(0, n, size=len(inputs)).tolist()]
        else:
            dests = []
            for _ in inputs:
                fanout = int(rng.integers(1, self.max_fanout + 1))
                picked = rng.choice(n, size=fanout, replace=False)
                dests.append(tuple(sorted(picked.tolist())))
        return self._arrivals(slot, inputs, dests)

    # ------------------------------------------------------------------ #
    @property
    def average_fanout(self) -> float:
        return (1 + self.max_fanout) / 2.0

    @property
    def effective_load(self) -> float:
        return self.p * self.average_fanout

    @property
    def is_unicast(self) -> bool:
        """True for the max_fanout=1 (pure unicast) configuration."""
        return self.max_fanout == 1
