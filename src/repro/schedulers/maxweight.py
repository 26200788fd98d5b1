"""MaxWeight matching — the throughput-optimality reference.

McKeown/Mekkittikul/Anantharam/Walrand (the paper's reference [2]) proved
that scheduling the maximum-weight matching each slot gives a unicast VOQ
switch 100% throughput for all independent admissible arrivals. It is far
too expensive for hardware (O(N³) per slot) but is the natural upper
baseline for the unicast experiments and for stability tests.

The weight of VOQ (i, j) is its occupancy (longest queue first, LQF).
The maximization runs through
:func:`scipy.optimize.linear_sum_assignment`; zero-weight (empty-VOQ)
assignments the solver is forced to make are filtered out of the result.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError
from repro.schedulers.base import UnicastVOQView

__all__ = ["MaxWeightScheduler"]

class MaxWeightScheduler:
    """Maximum-weight matching over the VOQ occupancy matrix (LQF)."""

    name = "maxweight"

    def __init__(self, num_ports: int) -> None:
        if num_ports < 1:
            raise ConfigurationError(f"num_ports must be >= 1, got {num_ports}")
        self.num_ports = num_ports
        # Weight-matrix scratch, refilled every slot.
        self._w = np.empty((num_ports, num_ports), dtype=np.float64)

    def schedule(self, view: UnicastVOQView) -> ScheduleDecision:
        """Solve the maximum-weight matching for one slot.

        The assignment solver is the whole cost; around it the weight
        matrix is built in a preallocated scratch (no ``astype`` copies)
        and the solution is read back through one gather + ``tolist()``
        instead of N scalar ``w[i, j]`` fetches.
        """
        n = self.num_ports
        if view.num_ports != n:
            raise ConfigurationError(
                f"view has {view.num_ports} ports, scheduler built for {n}"
            )
        w = self._w
        np.copyto(w, view.occupancy, casting="unsafe")
        decision = ScheduleDecision()
        if not w.any():
            return decision
        decision.requests_made = True
        rows, cols = linear_sum_assignment(w, maximize=True)
        picked = w[rows, cols].tolist()
        for i, j, wv in zip(rows.tolist(), cols.tolist(), picked):
            if wv > 0:
                decision.add(i, (j,))
        decision.rounds = 1
        return decision

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MaxWeightScheduler(N={self.num_ports})"
