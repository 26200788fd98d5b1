"""PIM — Parallel Iterative Matching (Anderson et al., ACM TOCS 1993).

Structurally identical to iSLIP (request / grant / accept iterations) but
both the grant and accept arbiters choose **uniformly at random** instead
of round-robin. PIM converges in O(log N) expected iterations but, with a
single iteration, caps at about 63% throughput under uniform traffic —
the weakness iSLIP's pointers fix. Included as a baseline/extension (the
paper cites it as prior VOQ work).
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError
from repro.schedulers.base import UnicastVOQView
from repro.utils.rng import make_rng

__all__ = ["PIMScheduler"]


class PIMScheduler:
    """Reference PIM implementation (random grant, random accept)."""

    name = "pim"

    def __init__(
        self,
        num_ports: int,
        *,
        max_iterations: int | None = None,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        if num_ports < 1:
            raise ConfigurationError(f"num_ports must be >= 1, got {num_ports}")
        if max_iterations is not None and max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1 or None, got {max_iterations}"
            )
        self.num_ports = num_ports
        self.max_iterations = max_iterations
        self._rng = make_rng(rng)

    def schedule(self, view: UnicastVOQView) -> ScheduleDecision:
        """Run random grant/accept iterations for one slot.

        Eligibility masking is one boolean matrix op per iteration; the
        random grant/accept draws stay scalar because PIM's RNG contract
        is *per-arbiter*: ``integers(len(candidates))`` is called once
        for every non-empty candidate list (even singletons), in
        ascending output then input order, and the golden pins hold that
        draw sequence.
        """
        n = self.num_ports
        if view.num_ports != n:
            raise ConfigurationError(
                f"view has {view.num_ports} ports, scheduler built for {n}"
            )
        wants = view.occupancy > 0
        input_matched = np.zeros(n, dtype=bool)
        output_matched = np.zeros(n, dtype=bool)
        match_of_input: list[int | None] = [None] * n
        decision = ScheduleDecision()
        rng = self._rng
        rounds = 0
        iteration = 0

        while self.max_iterations is None or iteration < self.max_iterations:
            iteration += 1
            elig = wants & ~input_matched[:, None]
            elig[:, output_matched] = False
            if elig.any():
                decision.requests_made = True
            else:
                break
            # Per-output requester lists in one pass: ``T.nonzero()``
            # flattens the eligible inputs grouped by output (ascending
            # within a group), cumulative counts index the groups, and
            # the grant loop draws without any per-column numpy calls.
            # One draw per requesting output — even singletons.
            _, req_rows = elig.T.nonzero()
            cnt_l = elig.sum(axis=0).tolist()
            ends_l = list(accumulate(cnt_l))
            rows_l = req_rows.tolist()
            grants_to_input: list[list[int]] = [[] for _ in range(n)]
            for j in range(n):
                cnt = cnt_l[j]
                if cnt == 0:
                    continue
                chosen = rows_l[ends_l[j] - cnt + int(rng.integers(cnt))]
                grants_to_input[chosen].append(j)
            new_match = False
            for i in range(n):
                grants = grants_to_input[i]
                if not grants:
                    continue
                j = grants[int(rng.integers(len(grants)))]
                input_matched[i] = True
                output_matched[j] = True
                match_of_input[i] = j
                new_match = True
            if not new_match:
                break
            rounds += 1

        for i, j in enumerate(match_of_input):
            if j is not None:
                decision.add(i, (j,))
        decision.rounds = rounds
        return decision

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PIMScheduler(N={self.num_ports}, max_iterations={self.max_iterations})"
