"""Cycle-level model of the FIFOMS control unit (paper Fig. 3, left).

The control unit has one min-comparator tree per input port (selecting the
smallest HOL time stamp among VOQs whose outputs are free) and one per
output port (selecting the smallest-weight request). Each scheduling round
is: input trees → request crossbar wires → output trees → grant feedback.

The model reads the VOQ heads of the reference model
(:class:`~repro.verify.reference.ReferenceFIFOMS`) and must produce
**identical** decisions to ``FIFOMSScheduler(tie_break=TieBreak.LOWEST_INPUT)`` —
comparator hardware resolves ties toward the lower lane index, so the
deterministic tie-break is the faithful one. Latency accounting follows
§IV.C: each round costs ``depth(input tree) + depth(output tree) + 1``
comparator levels (the +1 is the grant feedback register).
"""

from __future__ import annotations

from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError
from repro.hw.comparator import MinComparatorTree
from repro.verify.reference import ReferenceFIFOMS

__all__ = ["FIFOMSControlUnit"]


class FIFOMSControlUnit:
    """Comparator-tree execution of FIFOMS with latency accounting."""

    def __init__(self, num_ports: int) -> None:
        if num_ports < 1:
            raise ConfigurationError(f"num_ports must be >= 1, got {num_ports}")
        self.num_ports = num_ports
        self.input_trees = [MinComparatorTree(num_ports) for _ in range(num_ports)]
        self.output_trees = [MinComparatorTree(num_ports) for _ in range(num_ports)]
        self.total_rounds = 0
        self.total_comparator_levels = 0

    # ------------------------------------------------------------------ #
    def schedule(self, model: ReferenceFIFOMS) -> ScheduleDecision:
        """One slot of FIFOMS over ``model``'s VOQ heads, executed
        through the comparator fabric."""
        n = self.num_ports
        voqs = model.voqs
        if len(voqs) != n:
            raise ConfigurationError(
                f"control unit built for {n} ports, got {len(voqs)}"
            )
        input_free = [True] * n
        output_free = [True] * n
        granted: list[list[int]] = [[] for _ in range(n)]
        decision = ScheduleDecision()
        rounds = 0

        while True:
            # -------- input stage: per-port HOL min-timestamp trees -----
            request_weight: list[list[int | None]] = [
                [None] * n for _ in range(n)
            ]  # [output][input] lanes into the output trees
            any_request = False
            round_levels = 0
            for i in range(n):
                lanes: list[int | None] = [
                    voqs[i][j][0].time_stamp
                    if input_free[i] and output_free[j] and voqs[i][j]
                    else None
                    for j in range(n)
                ]
                smallest, _ = self.input_trees[i].evaluate(lanes)
                round_levels = max(round_levels, self.input_trees[i].stats.depth)
                if smallest is None:
                    continue
                for j in range(n):
                    if lanes[j] == smallest:
                        request_weight[j][i] = smallest
                        any_request = True
            if any_request:
                decision.requests_made = True
            else:
                break

            # -------- output stage: per-port grant trees ----------------
            new_match = False
            out_levels = 0
            for j in range(n):
                if not output_free[j]:
                    continue
                weight, winner = self.output_trees[j].evaluate(request_weight[j])
                out_levels = max(out_levels, self.output_trees[j].stats.depth)
                if winner is None:
                    continue
                output_free[j] = False
                input_free[winner] = False
                granted[winner].append(j)
                new_match = True
            if not new_match:
                break
            rounds += 1
            self.total_comparator_levels += round_levels + out_levels + 1

        for i in range(n):
            if granted[i]:
                decision.add(i, tuple(granted[i]))
        decision.rounds = rounds
        self.total_rounds += rounds
        return decision

    # ------------------------------------------------------------------ #
    @property
    def comparator_count(self) -> int:
        """Comparator instances in the fabric: 2N trees of N−1 each."""
        return 2 * self.num_ports * max(self.num_ports - 1, 0)

    @property
    def levels_per_round(self) -> int:
        """Worst-case comparator levels per round (the O(1)-ish latency)."""
        return 2 * self.input_trees[0].theoretical_depth + 1
