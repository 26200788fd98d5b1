"""SERENA — matching by arrival-graph merging (Giaccone, Prabhakar, Shah).

The paper's reference [7]: a "simple, high performance" scheduler that
reuses the previous slot's matching and refreshes it with the slot's new
arrivals, achieving MaxWeight-like stability at far lower cost.

Per slot:

1. **Arrival graph** — every input that received a cell this slot
   proposes the edge to that cell's output (if several cells arrived at
   one input — multicast copies — the heaviest VOQ wins the proposal);
   colliding proposals on one output keep the heaviest edge.
2. **Merge** — take the union of the arrival matching A and the previous
   matching P. The union decomposes into disjoint paths/cycles that
   alternate between A-edges and P-edges; in each component keep
   whichever alternating half has the larger total queue weight.
3. The merged matching (completed to cover leftover ports greedily by
   weight) is used for transfer and remembered for the next slot.

Weights are current VOQ occupancies (LQF weights), per the original.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError
from repro.schedulers.base import UnicastVOQView
from repro.utils.rng import make_rng

__all__ = ["SerenaScheduler"]


class SerenaScheduler:
    """Arrival-graph merge scheduler with remembered matchings."""

    name = "serena"

    def __init__(
        self, num_ports: int, *, rng: int | np.random.Generator | None = None
    ) -> None:
        if num_ports < 1:
            raise ConfigurationError(f"num_ports must be >= 1, got {num_ports}")
        self.num_ports = num_ports
        self._rng = make_rng(rng)
        # previous matching: prev[i] = output matched to input i, or -1.
        self._prev = np.full(num_ports, -1, dtype=np.int64)
        self._last_occupancy: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    def _arrival_matching(self, view: UnicastVOQView) -> np.ndarray:
        """Derive this slot's arrival proposals (one output per input).

        The per-input "heaviest newly-fed VOQ" scan is one masked row
        max plus one bulk tie grouping (``nonzero()`` flattens tied
        columns grouped by row, ascending), so the proposal loop draws
        one ``integers(k)`` per input with k > 1 tied heaviest VOQs, in
        ascending input order — the draw sequence the golden pins hold.
        Output collisions resolve in a sequential input-order sweep:
        the heavier edge wins.
        """
        n = self.num_ports
        occ = view.occupancy
        arrivals = (
            occ - self._last_occupancy
            if self._last_occupancy is not None
            else occ
        )
        grew = arrivals > 0
        masked = np.where(grew, occ, np.iinfo(occ.dtype).min)
        row_best = masked.max(axis=1)
        ties = grew & (masked == row_best[:, None])
        tie_rows, tie_cols = ties.nonzero()
        cnt_l = ties.sum(axis=1).tolist()
        ends_l = list(accumulate(cnt_l))
        cols_l = tie_cols.tolist()
        del tie_rows  # grouping is implicit in cnt_l/ends_l
        proposal_l = [-1] * n
        owner_of_output = [-1] * n
        occ_l = occ.tolist()
        rng = self._rng
        for i in range(n):
            cnt = cnt_l[i]
            if cnt == 0:
                continue
            if cnt == 1:
                j = cols_l[ends_l[i] - 1]
            else:
                j = cols_l[ends_l[i] - cnt + int(rng.integers(cnt))]
            # Output collision: heavier edge wins.
            k = owner_of_output[j]
            if k == -1 or occ_l[i][j] > occ_l[k][j]:
                if k != -1:
                    proposal_l[k] = -1
                owner_of_output[j] = i
                proposal_l[i] = j
        return np.array(proposal_l, dtype=np.int64)

    def _merge(
        self, a: np.ndarray, p: np.ndarray, occ: np.ndarray
    ) -> np.ndarray:
        """Keep, per alternating component of A ∪ P, the heavier half."""
        n = self.num_ports
        merged = np.full(n, -1, dtype=np.int64)
        # Build output -> input maps for both matchings.
        a_in_of_out = np.full(n, -1, dtype=np.int64)
        p_in_of_out = np.full(n, -1, dtype=np.int64)
        for i in range(n):
            if a[i] >= 0:
                a_in_of_out[a[i]] = i
            if p[i] >= 0:
                p_in_of_out[p[i]] = i
        visited_inputs = [False] * n
        for start in range(n):
            if visited_inputs[start] or (a[start] < 0 and p[start] < 0):
                continue
            # Trace the alternating component containing `start`.
            comp_a: list[tuple[int, int]] = []
            comp_p: list[tuple[int, int]] = []
            stack = [start]
            seen_outputs = set()
            while stack:
                i = stack.pop()
                if visited_inputs[i]:
                    continue
                visited_inputs[i] = True
                for matching, comp in ((a, comp_a), (p, comp_p)):
                    j = matching[i]
                    if j >= 0:
                        comp.append((i, int(j)))
                        if j not in seen_outputs:
                            seen_outputs.add(j)
                            for neighbor_map in (a_in_of_out, p_in_of_out):
                                k = neighbor_map[j]
                                if k >= 0 and not visited_inputs[k]:
                                    stack.append(int(k))
            wa = sum(occ[i, j] for i, j in comp_a)
            wp = sum(occ[i, j] for i, j in comp_p)
            keep = comp_a if wa >= wp else comp_p
            for i, j in keep:
                merged[i] = j
        return merged

    # ------------------------------------------------------------------ #
    def schedule(self, view: UnicastVOQView) -> ScheduleDecision:
        """Merge the arrival matching with the remembered one.

        The alternating-component merge is a sequential trace; around it
        the arrival matching is a bulk row max + tie grouping, stale
        remembered edges are invalidated with one gather, and the greedy
        completion orders its candidates with one ``np.lexsort``.
        """
        n = self.num_ports
        if view.num_ports != n:
            raise ConfigurationError(
                f"view has {view.num_ports} ports, scheduler built for {n}"
            )
        occ = view.occupancy
        decision = ScheduleDecision()
        if not (occ > 0).any():
            self._prev.fill(-1)
            self._last_occupancy = occ.copy()
            return decision
        decision.requests_made = True
        arrival = self._arrival_matching(view)
        # Previous matching edges are only valid while their VOQ has cells
        # — one gather over the remembered edges instead of a port scan.
        prev = self._prev.copy()
        held = (prev >= 0).nonzero()[0]
        if held.size:
            stale = held[occ[held, prev[held]] == 0]
            prev[stale] = -1
        merged = self._merge(arrival, prev, occ)
        self._complete_greedily(merged, occ)
        for i, j in enumerate(merged.tolist()):
            if j >= 0:
                decision.add(i, (j,))
        decision.rounds = 1 if decision.grants else 0
        self._prev = merged
        self._last_occupancy = occ.copy()
        return decision

    def _complete_greedily(self, match: np.ndarray, occ: np.ndarray) -> None:
        """Fill unmatched port pairs, heaviest eligible VOQ first.

        Candidates are ordered by one descending ``np.lexsort`` over
        (weight, input, output); the key triples are distinct, so the
        fill sequence is fully determined.
        """
        n = self.num_ports
        out_taken = np.zeros(n, dtype=bool)
        out_taken[match[match >= 0]] = True
        free_in = match < 0
        cand = free_in[:, None] & ~out_taken[None, :] & (occ > 0)
        flat = cand.reshape(-1).nonzero()[0]
        if flat.size == 0:
            return
        ci, cj = flat // n, flat % n
        order = np.lexsort((cj, ci, occ[ci, cj]))[::-1]
        ci_l, cj_l = ci.tolist(), cj.tolist()
        match_l = match.tolist()
        taken_l = out_taken.tolist()
        for k in order.tolist():
            i, j = ci_l[k], cj_l[k]
            if match_l[i] >= 0 or taken_l[j]:
                continue
            match_l[i] = j
            taken_l[j] = True
        match[:] = match_l

    def reset(self) -> None:
        """Forget the remembered matching and occupancy snapshot."""
        self._prev.fill(-1)
        self._last_occupancy = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SerenaScheduler(N={self.num_ports})"
