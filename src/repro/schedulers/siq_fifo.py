"""SIQ-FIFO — oldest-cell-first greedy scheduling on the
single-input-queued switch.

This is the FIFOMS arbitration rule (outputs grant the oldest requester)
transplanted onto the Fig. 1b architecture: every output grants the
oldest HOL cell whose residue contains it, ties broken randomly. Because
each input exposes only one HOL cell, all grants to an input belong to one
packet and multicast grant sets form automatically.

Comparing this against FIFOMS isolates *exactly* the value of the paper's
VOQ queue structure: the arbitration is identical, only the HOL blocking
differs. The ``abl-schedulers`` figure scores that comparison.
"""

from __future__ import annotations

import numpy as np

from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError
from repro.schedulers.base import SIQHolView
from repro.utils.rng import make_rng

__all__ = ["SIQFifoScheduler"]


class SIQFifoScheduler:
    """Oldest-cell-first greedy arbiter over SIQ HOL cells."""

    name = "siq-fifo"

    def __init__(
        self, num_ports: int, *, rng: int | np.random.Generator | None = None
    ) -> None:
        if num_ports < 1:
            raise ConfigurationError(f"num_ports must be >= 1, got {num_ports}")
        self.num_ports = num_ports
        self._rng = make_rng(rng)

    def schedule(self, view: SIQHolView) -> ScheduleDecision:
        """One arbitration pass: every requested output grants its oldest
        requesting HOL cell, ties drawn uniformly from the generator.

        The cells are walked in ``(arrival, input)`` order: a cell keeps,
        in one mask operation, the outputs no strictly older cell asked
        for, and only an output wanted by several cells of one arrival
        slot is walked bit by bit. Those ties are then drawn in ascending
        output order over ascending-input winner lists, one draw per tied
        output — the order a per-output scan of the requests draws them
        in, so the generator advances identically.
        """
        decision = ScheduleDecision()
        if not view.inputs:
            return decision
        decision.requests_made = True
        order = sorted(zip(view.arrivals, view.inputs, view.residue_bits))
        granted: dict[int, int] = {}  # input -> bitmask of outputs won
        # ``older``: outputs asked for by a strictly older cell; ``same``:
        # by the arrival slot being walked; ``clashed``: by two or more
        # cells of one arrival slot.
        older = same = clashed = 0
        walked = None
        for arrival, i, bits in order:
            if arrival != walked:
                older |= same
                same = 0
                walked = arrival
            bits &= ~older
            if bits:
                clashed |= bits & same
                same |= bits
                granted[i] = bits
        if clashed:
            # Take each clashed output back from everyone holding it
            # (rivals share an arrival slot, so ``order`` lists them by
            # ascending input), then draw its winner.
            rivals: dict[int, list[int]] = {}
            for _, i, _ in order:
                clash = granted.get(i, 0) & clashed
                if not clash:
                    continue
                granted[i] ^= clash
                while clash:
                    low = clash & -clash
                    clash ^= low
                    rivals.setdefault(low, []).append(i)
            for low in sorted(rivals):
                tied = rivals[low]
                granted[tied[int(self._rng.integers(len(tied)))]] |= low
        decision.masks = {i: granted[i] for i in sorted(granted) if granted[i]}
        decision.rounds = 1 if decision.masks else 0
        return decision

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SIQFifoScheduler(N={self.num_ports})"
