"""WBA — Weight-Based Arbitration for multicast single-input-queued
switches (Prabhakar, McKeown, Ahuja; the paper's reference [10]).

Each slot, every input computes a scalar weight for its HOL cell from the
cell's *age* (older is heavier, for fairness) and its *residue fanout*
(larger fanout is lighter, so wide cells don't monopolize outputs):

    weight = age_coeff * age − fanout_coeff * |residue|

Every destination in the HOL cell's residue then requests its output with
that weight, and each output independently grants the heaviest request
(ties broken randomly). There are no iterations — WBA is a single-pass,
O(1)-per-output arbiter, which is its hardware selling point. All grants
landing on one input necessarily belong to its single HOL cell, so
multicast grant sets form naturally and fanout splitting is automatic.
"""

from __future__ import annotations

import numpy as np

from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError
from repro.schedulers.base import SIQHolView, grant_best_key
from repro.utils.rng import make_rng

__all__ = ["WBAScheduler"]


class WBAScheduler:
    """Single-pass weight-based multicast arbiter."""

    name = "wba"

    def __init__(
        self,
        num_ports: int,
        *,
        age_coeff: float = 1.0,
        fanout_coeff: float = 1.0,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        if num_ports < 1:
            raise ConfigurationError(f"num_ports must be >= 1, got {num_ports}")
        if age_coeff < 0 or fanout_coeff < 0:
            raise ConfigurationError(
                f"coefficients must be >= 0, got age={age_coeff}, "
                f"fanout={fanout_coeff}"
            )
        self.num_ports = num_ports
        self.age_coeff = float(age_coeff)
        self.fanout_coeff = float(fanout_coeff)
        self._rng = make_rng(rng)

    def weight_of(self, arrival_slot: int, residue_bits: int, slot: int) -> float:
        """The WBA weight at ``slot`` of a HOL cell that arrived at
        ``arrival_slot`` with ``residue_bits`` still to serve."""
        age = slot - arrival_slot + 1
        return self.age_coeff * age - self.fanout_coeff * residue_bits.bit_count()

    def schedule(self, view: SIQHolView) -> ScheduleDecision:
        """Single weight-based arbitration pass over the HOL cells:
        every requested output grants its heaviest requester."""
        slot = view.current_slot
        weight_of = self.weight_of
        keys = [
            -weight_of(arrival, bits, slot)
            for arrival, bits in zip(view.arrivals, view.residue_bits)
        ]
        return grant_best_key(view, keys, self._rng)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WBAScheduler(N={self.num_ports}, age={self.age_coeff}, "
            f"fanout={self.fanout_coeff})"
        )
