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

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.core.matching import ScheduleDecision
from repro.core.voq import MulticastVOQInputPort
from repro.errors import ConfigurationError
from repro.utils.bitsets import bitmask_from_iterable, bitmask_to_tuple

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

    #: The greedy pass is deterministic (pointer order, then smallest HOL
    #: timestamp), so the SoA entry point below is bit-exact with
    #: :meth:`schedule` and both kernel backends are supported.
    supported_backends = ("object", "vectorized")

    def schedule(self, ports: Sequence[MulticastVOQInputPort]) -> ScheduleDecision:
        """One greedy pointer pass over the inputs; single iteration."""
        n = self.num_ports
        if len(ports) != n:
            raise ConfigurationError(
                f"scheduler built for {n} ports, got {len(ports)}"
            )
        decision = ScheduleDecision()
        output_free = [True] * n
        matched = 0
        for k in range(n):
            i = (self._pointer + k) % n
            port = ports[i]
            ts = port.min_hol_timestamp(output_free)
            if ts is None:
                continue
            decision.requests_made = True
            outs = tuple(
                j
                for j, q in enumerate(port.voqs)
                if output_free[j] and q and q.head().timestamp == ts
            )
            for j in outs:
                output_free[j] = False
            decision.add(i, outs)
            matched += 1
        # Rotate the starting pointer so no input is permanently favored.
        self._pointer = (self._pointer + 1) % n
        decision.rounds = 1 if matched else 0
        return decision

    def schedule_state(
        self,
        state: "SwitchState",
        *,
        input_free: list[bool] | None = None,
        output_free: list[bool] | None = None,
    ) -> ScheduleDecision:
        """SoA twin of :meth:`schedule` for the vectorized kernel backend.

        Each visited input's ``min_hol_timestamp`` comparator and grant
        set are one :meth:`~repro.kernel.state.SwitchState.hol_request`
        lookup — the oldest packet with a HOL cell at a still-free
        output, and the free outputs it heads. The pointer walk itself
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
            decision.add(i, bitmask_to_tuple(mask))
            matched += 1
        self._pointer = (self._pointer + 1) % n
        decision.rounds = 1 if matched else 0
        return decision

    def reset(self) -> None:
        """Return the rotating start pointer to input 0."""
        self._pointer = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GreedyMcastScheduler(N={self.num_ports}, pointer={self._pointer})"
