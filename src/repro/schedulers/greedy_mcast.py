"""Greedy round-robin multicast scheduler for the multicast VOQ switch.

A deliberately simple alternative to FIFOMS over the *same* queue
structure, used by ablations to show what the timestamp coordination buys:
inputs are visited in round-robin order starting from a rotating pointer;
each visited input picks the HOL packet (among its VOQs whose outputs are
still free) with the smallest timestamp and claims **all** still-free
outputs whose HOL cell belongs to that packet.

Because inputs are served sequentially by pointer order rather than by
per-output FIFO arbitration, earlier-pointer inputs can "steal" outputs
from older packets at other inputs — this scheduler is unfair and splits
fanouts more than FIFOMS, but it is single-pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError
from repro.utils.bitsets import bitmask_from_iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.state import SwitchState

__all__ = ["GreedyMcastScheduler"]


class GreedyMcastScheduler:
    """Pointer-rotating greedy multicast scheduler (single pass)."""

    name = "greedy-mcast"

    def __init__(self, num_ports: int) -> None:
        if num_ports < 1:
            raise ConfigurationError(f"num_ports must be >= 1, got {num_ports}")
        self.num_ports = num_ports
        self._pointer = 0

    def schedule_state(
        self,
        state: "SwitchState",
        *,
        input_free: list[bool] | None = None,
        output_free: list[bool] | None = None,
    ) -> ScheduleDecision:
        """One greedy pointer pass over a struct-of-arrays
        :class:`~repro.kernel.state.SwitchState`; single iteration.

        Each visited input's request is one
        :meth:`~repro.kernel.state.SwitchState.hol_request` lookup — the
        oldest packet with a HOL cell at a still-free output, and the
        free outputs it heads. The pointer walk itself
        stays sequential — that *is* the algorithm (later inputs see
        earlier claims).
        """
        n = self.num_ports
        if state.num_ports != n:
            raise ConfigurationError(
                f"scheduler built for {n} ports, got a {state.num_ports}-port state"
            )
        decision = ScheduleDecision()
        if output_free is None:
            free = (1 << n) - 1
        else:
            free = bitmask_from_iterable(
                j for j, is_free in enumerate(output_free) if is_free
            )
        matched = 0
        for k in range(n):
            i = (self._pointer + k) % n
            if input_free is not None and not input_free[i]:
                continue
            request = state.hol_request(i, free)
            if request is None:
                continue
            decision.requests_made = True
            mask = request[2]
            free &= ~mask
            decision.masks[i] = mask
            matched += 1
        self._pointer = (self._pointer + 1) % n
        decision.rounds = 1 if matched else 0
        return decision

    def reset(self) -> None:
        """Return the rotating start pointer to input 0."""
        self._pointer = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GreedyMcastScheduler(N={self.num_ports}, pointer={self._pointer})"
