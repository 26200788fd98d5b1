"""2DRR — Two-Dimensional Round-Robin (LaMaire & Serpanos, ToN 1994).

The paper's reference [9], one of the classic VOQ unicast schedulers. The
request matrix R (R[i,j] = input i has a cell for output j) is swept by
*generalized diagonals*: diagonal d is the set {(i, (i + d) mod N)} — N
disjoint cells covering each row and column exactly once. Each slot the
scheduler walks all N diagonals in a per-slot rotated order and matches
every requesting (input, output) pair on the diagonal whose row and
column are still free.

The rotation uses the classic *pattern sequence*: the order diagonals are
visited shifts by slot index through a pattern table that guarantees each
diagonal gets first pick exactly once every N slots, which is what gives
2DRR its fairness. (We use the simple row-rotation pattern table; the
original paper's table additionally scrambles to avoid harmonic locking
for non-prime N, which matters little for the random workloads here and
is noted in the class docstring.)
"""

from __future__ import annotations

import numpy as np

from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError
from repro.schedulers.base import UnicastVOQView

__all__ = ["TwoDimensionalRoundRobinScheduler"]


class TwoDimensionalRoundRobinScheduler:
    """Diagonal-sweeping unicast matcher (single pass over N diagonals).

    Note: the pattern table here is the plain rotation (slot k visits
    diagonals k, k+1, ..., k+N-1 mod N). The original 2DRR paper uses a
    scrambled pattern table to break harmonics for composite N; under the
    stochastic workloads of this repository the difference is not
    measurable, and the rotation keeps the implementation transparent.
    """

    name = "2drr"

    def __init__(self, num_ports: int) -> None:
        if num_ports < 1:
            raise ConfigurationError(f"num_ports must be >= 1, got {num_ports}")
        self.num_ports = num_ports
        self._slot_index = 0
        # Diagonal index table: _diag_cols[d, i] = (i + d) % N, used to
        # gather each diagonal's columns.
        idx = np.arange(num_ports, dtype=np.int64)
        self._diag_cols = (idx[None, :] + idx[:, None]) % num_ports
        self._diag_cols_list: list[list[int]] = self._diag_cols.tolist()

    def schedule(self, view: UnicastVOQView) -> ScheduleDecision:
        """Sweep the N diagonals in this slot's rotated order.

        The whole request matrix is rearranged into diagonal-major layout
        with a single fancy-index gather (``wants_diag[d, i] = wants[i,
        (i + d) % n]``); the rotated sweep then walks the gathered
        booleans as plain python lists — per-element reads of a numpy
        matrix cost more than the sweep itself at practical N, and the
        sweep's free-row/free-column masking is the only sequential
        dependency. A diagonal's cells are conflict-free by construction,
        so there is no tie-breaking.
        """
        n = self.num_ports
        if view.num_ports != n:
            raise ConfigurationError(
                f"view has {view.num_ports} ports, scheduler built for {n}"
            )
        wants = view.occupancy > 0
        decision = ScheduleDecision()
        if not wants.any():
            self._slot_index += 1
            return decision
        decision.requests_made = True
        rows = np.arange(n, dtype=np.int64)
        # wants_diag[d, i] = wants[i, (i + d) % n]
        wants_diag = wants[rows[None, :], self._diag_cols].tolist()
        diag_cols = self._diag_cols_list
        input_free = [True] * n
        output_free = [True] * n
        first = self._slot_index % n
        matched = 0
        for step in range(n):
            d = (first + step) % n
            wants_row = wants_diag[d]
            cols = diag_cols[d]
            for i in range(n):
                if wants_row[i] and input_free[i]:
                    j = cols[i]
                    if output_free[j]:
                        input_free[i] = False
                        output_free[j] = False
                        decision.add(i, (j,))
                        matched += 1
            if matched == n:
                break
        decision.rounds = 1 if matched else 0
        self._slot_index += 1
        return decision

    def reset(self) -> None:
        """Restart the diagonal rotation from pattern 0."""
        self._slot_index = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TwoDimensionalRoundRobinScheduler(N={self.num_ports})"
