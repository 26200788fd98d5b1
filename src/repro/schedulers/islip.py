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

import numpy as np

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

        Each iteration's grant and accept arbiters are masked argmins
        over modular-distance key matrices (``(i - pointer) % N``): one
        reduction per iteration instead of a scan per port. The keys
        within one arbiter are distinct, so every argmin is the unique
        round-robin choice.
        """
        n = self.num_ports
        if view.num_ports != n:
            raise ConfigurationError(
                f"view has {view.num_ports} ports, scheduler built for {n}"
            )
        idx = np.arange(n, dtype=np.int64)
        # wants transposed: rows = outputs, columns = requesting inputs.
        wants_to = (view.occupancy > 0).T
        input_matched = np.zeros(n, dtype=bool)
        output_matched = np.zeros(n, dtype=bool)
        match_of_input: list[int | None] = [None] * n
        amask = np.empty((n, n), dtype=bool)
        decision = ScheduleDecision()
        rounds = 0
        iteration = 0

        while self.max_iterations is None or iteration < self.max_iterations:
            iteration += 1
            # ---- request ----
            elig = wants_to & ~input_matched
            elig[output_matched] = False
            if elig.any():
                decision.requests_made = True
            else:
                break
            # ---- grant: masked argmin over (i - grant_pointer[j]) % n ----
            gptr = np.asarray(self.grant_pointers, dtype=np.int64)
            gkey = np.where(elig, (idx[None, :] - gptr[:, None]) % n, n)
            chosen_in = gkey.argmin(axis=1)
            has_req = gkey.min(axis=1) < n
            # ---- accept: masked argmin over (j - accept_pointer[i]) % n ----
            amask.fill(False)
            granted_js = np.nonzero(has_req)[0]
            amask[chosen_in[granted_js], granted_js] = True
            aptr = np.asarray(self.accept_pointers, dtype=np.int64)
            akey = np.where(amask, (idx[None, :] - aptr[:, None]) % n, n)
            best_j = akey.argmin(axis=1).tolist()
            accepted = np.nonzero(akey.min(axis=1) < n)[0].tolist()
            new_matches = 0
            for i in accepted:
                j = best_j[i]
                input_matched[i] = True
                output_matched[j] = True
                match_of_input[i] = j
                new_matches += 1
                if iteration == 1:
                    # Pointer updates happen only on first-iteration accepts.
                    self.grant_pointers[j] = (i + 1) % n
                    self.accept_pointers[i] = (j + 1) % n
            if not new_matches:
                break
            rounds += 1
            note_round(decision, new_matches)

        for i, j in enumerate(match_of_input):
            if j is not None:
                decision.add(i, (j,))
        decision.rounds = rounds
        return decision

    def reset(self) -> None:
        """Reset all round-robin pointers to output/input 0."""
        self.grant_pointers = [0] * self.num_ports
        self.accept_pointers = [0] * self.num_ports

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ISLIPScheduler(N={self.num_ports}, max_iterations={self.max_iterations})"
