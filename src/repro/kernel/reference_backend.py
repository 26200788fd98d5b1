"""The ``object`` kernel: a FIFOMS or greedy-mcast scheduler run on the
reference model of :mod:`repro.verify.reference`, through the one lane
driver (:class:`~repro.verify.shadow.ReferenceLane`) that also drives the
:class:`~repro.verify.shadow.ReferenceShadow` checker."""

from __future__ import annotations

from typing import Any

from repro.core.matching import ScheduleDecision
from repro.kernel.base import KernelBackend, register_backend
from repro.utils.bitsets import iter_bits
from repro.verify import shadow
from repro.verify.reference import ReferenceFIFOMS

__all__ = ["ReferenceBackend"]


class ReferenceBackend(KernelBackend):
    """One reference lane behind the kernel interface, drawing RANDOM ties
    from the scheduler's own generator."""

    name = "object"

    def __init__(self, num_ports: int, **buffer: Any) -> None:
        self.model = ReferenceFIFOMS(num_ports, **buffer)
        self.lane = shadow.ReferenceLane(self.model)

    def admit(self, packet: Any, slot: int) -> bool:
        return self.model.preprocess(packet, slot)

    def schedule(self, scheduler: Any, *, input_free: list[bool] | None = None,
                 output_free: list[bool] | None = None) -> ScheduleDecision:
        return self.lane.decide(
            scheduler, getattr(scheduler, "_rng", None), input_free, output_free)

    def commit(self, decision: ScheduleDecision, result: Any, slot: int) -> None:
        for i, mask in self.driver_row(decision):
            packet, released = self.model.transmit(i, list(iter_bits(mask)))
            result.rows.append((packet, mask))
            result.cells_delivered += mask.bit_count()
            result.reclaimed += released
            result.splits += not released

    def harvest_slot_stats(self) -> dict[str, object]:
        return shadow.harvest(self.model)

    def queue_sizes(self) -> list[int]:
        return shadow.queue_sizes(self.model)

    def total_backlog(self) -> int:
        return shadow.total_backlog(self.model)

    def check_invariants(self) -> None:
        self.model.check()

    def state_arrays(self) -> dict[str, object]:
        return shadow.state_arrays(self.model)


register_backend("object", ReferenceBackend)
