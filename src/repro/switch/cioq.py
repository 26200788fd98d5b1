"""Combined input-output queued (CIOQ) switch with fabric speedup S.

The classic middle ground between the paper's two poles: Fig. 1(a)'s OQ
switch needs speedup N (impractical), Fig. 1(c)'s IQ switch runs at
speedup 1 but pays scheduling delay. A CIOQ switch runs the fabric S
times per external slot — each internal *phase* computes a fresh matching
and moves up to one cell per input — and buffers at both sides; for
unicast, speedup 2 famously suffices to emulate output queueing.

Included as an extension (the natural follow-up question to the paper:
"how much speedup buys back the OQ delay?") — see
``tests/test_cioq.py::TestSpeedupClosesTheOQGap``. The scheduler can be any unicast
VOQ scheduler from the registry family (iSLIP by default); multicast
packets are split into copies at arrival like the paper's iSLIP setup,
so this switch pairs with the same workloads as everything else.
"""

from __future__ import annotations

from collections import deque

from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError, SchedulingError
from repro.packet import Packet
from repro.schedulers.islip import ISLIPScheduler
from repro.switch.base import BaseSwitch, SlotResult
from repro.switch.voq_bank import UnicastVOQBank

__all__ = ["CIOQSwitch"]


class CIOQSwitch(BaseSwitch):
    """N×N CIOQ switch: VOQ inputs, FIFO outputs, speedup-S fabric."""

    name = "cioq"
    #: Deliveries come off the output FIFOs, one per line per slot; the
    #: speedup-S fabric phases behind them move up to S distinct cells
    #: from one input, so the per-input single-cell half does not hold.
    matching_discipline = "output"

    def __init__(
        self,
        num_ports: int,
        speedup: int = 2,
        scheduler: object | None = None,
    ) -> None:
        super().__init__(num_ports)
        if speedup < 1:
            raise ConfigurationError(f"speedup must be >= 1, got {speedup}")
        self.speedup = speedup
        self.scheduler = scheduler if scheduler is not None else ISLIPScheduler(num_ports)
        self.bank = UnicastVOQBank(num_ports)
        self.output_queues: list[deque[Packet]] = [
            deque() for _ in range(num_ports)
        ]
        self.phases_run = 0

    # ------------------------------------------------------------------ #
    def _accept(self, packet: Packet, slot: int) -> None:
        push = self.bank.push
        for j in packet.destinations:
            push(packet, j)

    def _schedule_and_transmit(self, slot: int) -> SlotResult:
        n = self.num_ports
        result = SlotResult(slot=slot)
        # --- S internal phases: input side -> output queues ---
        for _phase in range(self.speedup):
            decision: ScheduleDecision = self.scheduler.schedule(
                self.bank.view(slot)
            )
            decision.validate(n, n)
            if decision.requests_made:
                result.requests_made = True
            result.rounds += decision.rounds
            if not decision.masks:
                break  # nothing left to move this slot
            self.phases_run += 1
            for i, mask in decision.masks.items():
                if mask & (mask - 1):
                    raise SchedulingError("CIOQ needs unicast grants")
                j = mask.bit_length() - 1
                self.output_queues[j].append(self.bank.pop(i, j))
        # --- one external departure per output per slot ---
        result.rows = [
            (q.popleft(), 1 << j) for j, q in enumerate(self.output_queues) if q
        ]
        result.cells_delivered = len(result.rows)
        return result

    # ------------------------------------------------------------------ #
    def queue_sizes(self) -> list[int]:
        """Queued copies at the *input* side (comparable to iSLIP)."""
        return list(self.bank.input_backlog)

    def output_queue_sizes(self) -> list[int]:
        """Cells staged at each output queue (inside the switch)."""
        return [len(q) for q in self.output_queues]

    def total_backlog(self) -> int:
        return self.bank.backlog() + sum(len(q) for q in self.output_queues)

    def check_invariants(self) -> None:
        self.bank.check()
