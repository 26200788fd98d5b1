"""Classic N² unicast VOQ switch (paper Fig. 1c) for iSLIP/PIM/MaxWeight.

Multicast handling follows the paper's iSLIP setup exactly: "iSLIP
schedules a multicast packet as separate (independent) unicast packets" —
at arrival, a fanout-k packet is copied into k VOQs and each copy owns its
own data cell. The queue-size metric therefore counts every copy, which
is precisely the replication cost the paper's address/data-cell split is
designed to avoid.
"""

from __future__ import annotations

from repro.core.matching import ScheduleDecision
from repro.errors import SchedulingError
from repro.fabric.crossbar import MulticastCrossbar
from repro.packet import Delivery, Packet
from repro.switch.base import BaseSwitch, SlotResult
from repro.switch.voq_bank import UnicastVOQBank

__all__ = ["UnicastVOQSwitch"]


class UnicastVOQSwitch(BaseSwitch):
    """N×N VOQ switch scheduling one-to-one matchings per slot.

    Parameters
    ----------
    num_ports:
        N.
    scheduler:
        Object exposing ``schedule(view: UnicastVOQView) ->
        ScheduleDecision`` where every grant set has fanout 1 (enforced).
    """

    name = "unicast-voq"

    def __init__(self, num_ports: int, scheduler: object) -> None:
        super().__init__(num_ports)
        self.scheduler = scheduler
        self.crossbar = MulticastCrossbar(num_ports)
        self.bank = UnicastVOQBank(num_ports)

    # ------------------------------------------------------------------ #
    def _accept(self, packet: Packet, slot: int) -> None:
        push = self.bank.push
        for j in packet.destinations:
            push(packet, j)

    def _decide(self, slot: int) -> tuple[ScheduleDecision, int]:
        return self.scheduler.schedule(self.bank.view(slot)), 0

    def _transfer(
        self, decision: ScheduleDecision, result: SlotResult, slot: int
    ) -> None:
        pop = self.bank.pop
        deliveries = result.deliveries
        for i, grant in decision.grants.items():
            if grant.fanout != 1:
                raise SchedulingError(
                    f"unicast scheduler granted fanout {grant.fanout} to input {i}"
                )
            j = grant.output_ports[0]
            deliveries.append(
                Delivery(packet=pop(i, j), output_port=j, service_slot=slot)
            )

    # ------------------------------------------------------------------ #
    def queue_sizes(self) -> list[int]:
        """Queued unicast copies per input (each copy owns a data cell)."""
        return list(self.bank.input_backlog)

    def total_backlog(self) -> int:
        return self.bank.backlog()

    def check_invariants(self) -> None:
        self.bank.check()
