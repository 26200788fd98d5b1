"""SIQ-FIFO — oldest-cell-first greedy scheduling on the
single-input-queued switch.

This is the FIFOMS arbitration rule (outputs grant the oldest requester)
transplanted onto the Fig. 1b architecture: every output grants the
oldest HOL cell whose residue contains it, ties broken randomly. Because
each input exposes only one HOL cell, all grants to an input belong to one
packet and multicast grant sets form automatically.

Comparing this against FIFOMS isolates *exactly* the value of the paper's
VOQ queue structure: the arbitration is identical, only the HOL blocking
differs. Used by the ABL-SCHED ablation benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError
from repro.schedulers.base import SIQHolView, grant_best_key
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
        """Grant each output to its oldest requesting HOL cell."""
        return grant_best_key(view, view.arrivals, self._rng)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SIQFifoScheduler(N={self.num_ports})"
