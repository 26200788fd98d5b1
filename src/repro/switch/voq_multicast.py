"""The paper's switch: multicast VOQ input ports + multicast crossbar.

This composes the Section II queue structure — held by a pluggable
:class:`~repro.kernel.base.KernelBackend` — a scheduler with the FIFOMS
interface, and the multicast crossbar. The per-slot sequence follows the
paper exactly:

1. *preprocess* arrivals (Table 1),
2. *schedule* (Table 2's iterative request/grant rounds),
3. *data transmission* — set crosspoints, each matched input sends one
   data cell to all its granted outputs simultaneously,
4. *post-transmission processing* — pop served address cells, decrement
   fanout counters, destroy exhausted data cells.

The queue state itself lives behind ``backend=``: ``"vectorized"`` (the
default) holds it as :class:`~repro.kernel.state.SwitchState` — a
recycled packet table, the HOL-packet bitmask index (``p_hol`` /
``hol_pids``) that holds every VOQ's head, and pid deques (``behind``,
marked in ``deep``) for only the cells queued behind a head; no per-cell
objects and no numpy matrices
(:class:`~repro.kernel.vectorized.VectorizedBackend`) — and routes
scheduling through the scheduler's ``schedule_state`` entry point;
``"object"`` runs the scheduler's settings on the reference FIFOMS of
:mod:`repro.verify.reference`, the paper's per-cell address/data-cell
structures (:class:`~repro.kernel.reference_backend.ReferenceBackend`,
FIFOMS and greedy-mcast only). Both produce bit-identical slot streams
(``repro.verify.shadow`` checks it slot by slot), and both hand the
crossbar and their commit the decision's output masks unchanged
(docs/kernel.md, "The grant is a mask from round to commit").

Fault injection (optional): with a
:class:`~repro.faults.injector.FaultInjector` attached, arrivals may be
dropped at ingress (down input, Bernoulli loss, buffer drop-tail), the
scheduler is handed port masks so it withholds requests to down ports
(post-scheduling pruning degrades schedulers that do not understand
masks), and between scheduling and fabric configuration the injector
prunes branches through failed crosspoints and applies grant loss. Pruned
address cells stay at their VOQ heads, so the paper's fanout-splitting
semantics retry them on later slots — degraded operation, not a crash.
"""

from __future__ import annotations

from repro.core.fifoms import FIFOMSScheduler
from repro.core.matching import ScheduleDecision
from repro.fabric.crossbar import MulticastCrossbar
from repro.kernel.base import make_backend
from repro.packet import Packet
from repro.schedulers.base import resolve_backend
from repro.switch.base import BaseSwitch, SlotResult

__all__ = ["MulticastVOQSwitch"]


class MulticastVOQSwitch(BaseSwitch):
    """N×N multicast VOQ switch (the paper's architecture).

    Parameters
    ----------
    num_ports:
        N. The switch is square, as in the paper.
    scheduler:
        Any object exposing ``schedule_state(state, *, input_free=None,
        output_free=None) -> ScheduleDecision`` over a
        :class:`~repro.kernel.state.SwitchState`; a scheduler without it
        is refused at construction. Defaults to a paper-configured
        :class:`~repro.core.fifoms.FIFOMSScheduler`. Schedulers
        advertising ``supports_port_masks`` are handed
        ``input_free``/``output_free`` masks during port outages.
    backend:
        Kernel backend holding the queue state: ``"vectorized"``
        (production; what ``None``, the default, builds) or ``"object"``
        (the reference model, for FIFOMS and greedy-mcast only);
        ``switch.backend`` reports what was built.
    buffer_capacity:
        Optional finite per-input data-cell buffer (None = unbounded, as
        in the paper's simulations, which *measure* the needed size).
    buffer_overflow:
        What a full finite buffer does with the next packet:
        ``"raise"`` (default, fatal :class:`~repro.errors.BufferError_`)
        or ``"drop"`` (drop-tail: the packet is counted and discarded).
    fault_injector:
        Optional :class:`~repro.faults.injector.FaultInjector`; the
        simulation engine attaches one when the run is fault-injected.
    """

    name = "mcast-voq"

    def __init__(
        self,
        num_ports: int,
        scheduler: object | None = None,
        *,
        backend: str | None = None,
        buffer_capacity: int | None = None,
        buffer_overflow: str = "raise",
        fault_injector: object | None = None,
    ) -> None:
        super().__init__(num_ports)
        self.scheduler = (
            scheduler if scheduler is not None else FIFOMSScheduler(num_ports)
        )
        self.backend = resolve_backend(self.scheduler, backend)
        self.buffer_capacity, self.buffer_overflow = buffer_capacity, buffer_overflow
        self._backend = make_backend(
            self.backend,
            num_ports,
            buffer_capacity=buffer_capacity,
            buffer_overflow=buffer_overflow,
        )
        self.crossbar = MulticastCrossbar(num_ports)
        self.fault_injector = fault_injector

    def state_arrays(self) -> dict[str, object]:
        """Struct-of-arrays snapshot of the queue state (both backends)."""
        return self._backend.state_arrays()

    def harvest_slot_stats(self) -> dict[str, object]:
        """Kernel-seam per-slot counters (same keys on both backends)."""
        return self._backend.harvest_slot_stats()

    # ------------------------------------------------------------------ #
    def _accept(self, packet: Packet, slot: int) -> bool:
        """Preprocess one arrival; ``False`` when it is dropped at ingress."""
        injector = self.fault_injector
        if injector is not None and injector.drop_arrival(
            injector.state_for(slot), packet
        ):
            self._dropped_this_slot.append(packet)
            return False
        if not self._backend.admit(packet, slot):
            # Drop-tail buffer overflow: counted loss, not a crash.
            self._dropped_this_slot.append(packet)
            return False
        return True

    def _decide(self, slot: int) -> tuple[ScheduleDecision, int]:
        """Run the scheduling pass, fault-degraded when an injector is set.

        Returns ``(decision, grants_lost)``. This is the seam between the
        paper's schedule phase and the fabric-configure phase: the fault
        injector prunes the decision here, and the crossbar's crosspoint
        fault mask is refreshed for the slot.
        """
        injector = self.fault_injector
        if injector is None:
            return self._backend.schedule(self.scheduler), 0
        state = injector.state_for(slot)
        if state.has_port_outage and getattr(
            self.scheduler, "supports_port_masks", False
        ):
            # Mask-aware schedulers withhold requests to down ports at the
            # source — the paper's request step simply skips them.
            input_free = (
                list(state.input_up) if state.input_up is not None else None
            )
            output_free = (
                list(state.output_up) if state.output_up is not None else None
            )
            decision = self._backend.schedule(
                self.scheduler, input_free=input_free, output_free=output_free
            )
        else:
            decision = self._backend.schedule(self.scheduler)
        decision, grants_lost = injector.filter_decision(state, decision)
        self.crossbar.set_crosspoint_faults(state.failed_crosspoints)
        return decision, grants_lost

    def _transfer(
        self, decision: ScheduleDecision, result: SlotResult, slot: int
    ) -> None:
        """Post-transmission processing, delegated to the kernel backend."""
        self._backend.commit(decision, result, slot)

    # ------------------------------------------------------------------ #
    def queue_sizes(self) -> list[int]:
        """Paper metric: live data cells (unsent packets) per input port."""
        return self._backend.queue_sizes()

    def total_backlog(self) -> int:
        """Pending (packet, destination) pairs = queued address cells."""
        return self._backend.total_backlog()

    def check_invariants(self) -> None:
        """Delegate the deep structural checks to the kernel backend."""
        self._backend.check_invariants()
