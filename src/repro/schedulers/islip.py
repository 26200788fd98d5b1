"""iSLIP — iterative round-robin matching for unicast VOQ switches.

Implements McKeown's iSLIP (IEEE/ACM ToN 1999) as the paper's unicast
baseline. Each iteration has three steps:

Request
    Every unmatched input requests every unmatched output for which it has
    at least one queued cell.
Grant
    Every unmatched output that received requests grants the requesting
    input that appears *next* (round-robin) at or after its grant pointer.
Accept
    Every input that received grants accepts the granting output next at
    or after its accept pointer.

Pointers are incremented (one beyond the matched partner) **only when the
grant is accepted in the first iteration** — the property that gives iSLIP
its desynchronization and 100% throughput under uniform unicast traffic.
"""

from __future__ import annotations

from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError
from repro.schedulers.base import UnicastVOQView, note_round

__all__ = ["ISLIPScheduler"]


class ISLIPScheduler:
    """Reference iSLIP implementation.

    Parameters
    ----------
    num_ports:
        N.
    max_iterations:
        Iteration cap; ``None`` iterates to convergence (adds no matches).
        Hardware typically uses log2(N) iterations; the convergence
        behaviour is what the paper's Fig. 5 measures.
    """

    name = "islip"

    def __init__(self, num_ports: int, *, max_iterations: int | None = None) -> None:
        if num_ports < 1:
            raise ConfigurationError(f"num_ports must be >= 1, got {num_ports}")
        if max_iterations is not None and max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1 or None, got {max_iterations}"
            )
        self.num_ports = num_ports
        self.max_iterations = max_iterations
        self.grant_pointers = [0] * num_ports  # one per output
        self.accept_pointers = [0] * num_ports  # one per input

    # ------------------------------------------------------------------ #
    def schedule(self, view: UnicastVOQView) -> ScheduleDecision:
        """Run request/grant/accept iterations for one slot.

        The rounds run on the view's request columns — one Python int
        per output, bit i set when input i has a cell for it — the way
        the hardware does it: every arbiter is a priority encoder over a
        request bit-vector. "First requester at or after the pointer" is
        the lowest set bit of the vector shifted down by the pointer, or
        of the whole vector when nothing sits above the pointer, so a
        grant or an accept is a few int operations whatever N is, and
        an output whose requesters are all matched drops out of the
        later rounds (inputs never become free again within a slot).
        """
        n = self.num_ports
        if view.num_ports != n:
            raise ConfigurationError(
                f"view has {view.num_ports} ports, scheduler built for {n}"
            )
        cols = view.request_columns()
        grant_pointers = self.grant_pointers
        accept_pointers = self.accept_pointers
        max_it = self.max_iterations
        free_inputs = (1 << n) - 1
        # Unmatched outputs that may still have a free requester, ascending.
        active = [j for j, col in enumerate(cols) if col]
        match_of_input: dict[int, int] = {}
        decision = ScheduleDecision()
        iteration = 0

        while active and (max_it is None or iteration < max_it):
            iteration += 1
            # ---- request + grant: input -> bitmask of granting outputs ----
            grants: dict[int, int] = {}
            requesting = []
            for j in active:
                eligible = cols[j] & free_inputs
                if not eligible:
                    continue
                requesting.append(j)
                above = eligible >> grant_pointers[j]
                if above:
                    i = grant_pointers[j] + (above & -above).bit_length() - 1
                else:
                    i = (eligible & -eligible).bit_length() - 1
                grants[i] = grants.get(i, 0) | (1 << j)
            if not grants:
                break
            decision.requests_made = True
            # ---- accept: every granted input takes exactly one output ----
            matched_outputs = 0
            for i in sorted(grants):
                offered = grants[i]
                above = offered >> accept_pointers[i]
                if above:
                    j = accept_pointers[i] + (above & -above).bit_length() - 1
                else:
                    j = (offered & -offered).bit_length() - 1
                match_of_input[i] = j
                free_inputs ^= 1 << i
                matched_outputs |= 1 << j
                if iteration == 1:
                    # Pointer updates happen only on first-iteration accepts.
                    grant_pointers[j] = (i + 1) % n
                    accept_pointers[i] = (j + 1) % n
            active = [j for j in requesting if not (matched_outputs >> j) & 1]
            note_round(decision, len(grants))

        for i in sorted(match_of_input):
            decision.add(i, (match_of_input[i],))
        decision.rounds = len(decision.round_grants)
        return decision

    def reset(self) -> None:
        """Reset all round-robin pointers to output/input 0."""
        self.grant_pointers = [0] * self.num_ports
        self.accept_pointers = [0] * self.num_ports

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ISLIPScheduler(N={self.num_ports}, max_iterations={self.max_iterations})"
