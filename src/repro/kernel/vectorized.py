"""The ``vectorized`` kernel backend — SoA state, no per-cell objects.

State lives in a :class:`~repro.kernel.state.SwitchState`; scheduling
goes through the scheduler's array entry point
(``schedule_state(state, ...)``, e.g.
:meth:`~repro.core.fifoms.FIFOMSScheduler.schedule_state`) which runs the
request/grant rounds over the state's HOL-packet index — one
``(timestamp, input, output bitmask)`` request per competing input,
granted oldest first with int bit operations. Commit is one
:meth:`SwitchState.serve_rows` loop over the slot's grants (clear the
granted HOL bits, promote the cell queued behind each head that has one,
decrement the fanout counter), reading each
grant's output mask as the scheduler left it (docs/kernel.md, "The grant
is a mask from round to commit").

Bit-exactness contract: every RNG draw, tie-break, and emission order
matches the ``object`` backend — ``repro.verify.shadow`` enforces this
slot by slot across the scheduler × traffic × faults grid.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.matching import ScheduleDecision
from repro.kernel.base import KernelBackend, register_backend
from repro.kernel.state import SwitchState
from repro.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.switch.base import SlotResult

__all__ = ["VectorizedBackend"]


class VectorizedBackend(KernelBackend):
    """Struct-of-arrays state behind the kernel interface."""

    name = "vectorized"

    def __init__(
        self,
        num_ports: int,
        *,
        buffer_capacity: int | None = None,
        buffer_overflow: str = "raise",
    ) -> None:
        self.num_ports = num_ports
        self.state = SwitchState(
            num_ports,
            buffer_capacity=buffer_capacity,
            buffer_overflow=buffer_overflow,
        )

    def admit(self, packet: Packet, slot: int) -> bool:
        """Install the arrival into the SoA state (no cell objects)."""
        return self.state.admit(packet, slot)

    def schedule(
        self,
        scheduler: Any,
        *,
        input_free: list[bool] | None = None,
        output_free: list[bool] | None = None,
    ) -> ScheduleDecision:
        """Dispatch to the scheduler's ``schedule_state`` array entry
        (``resolve_backend`` builds this kernel only for a scheduler
        that defines one)."""
        decision: ScheduleDecision = scheduler.schedule_state(
            self.state, input_free=input_free, output_free=output_free
        )
        return decision

    def commit(
        self, decision: ScheduleDecision, result: "SlotResult", slot: int
    ) -> None:
        """Post-transmission processing over the SoA state: one
        :meth:`SwitchState.serve_rows` loop over the slot's grants clears
        the granted HOL bits, hands them to the cells queued behind (the
        new heads) and decrements each fanout counter in one subtract; one
        ``(packet, mask)`` row per grant."""
        state = self.state
        backlog = state.backlog
        reclaimed = state.serve_rows(self.driver_row(decision), result.rows.append)
        # serve_rows() drops the backlog by one per copy it pops.
        result.cells_delivered += backlog - state.backlog
        result.reclaimed += reclaimed
        result.splits += len(decision.masks) - reclaimed

    def harvest_slot_stats(self) -> dict[str, object]:
        """Kernel-seam counters off the SoA state (O(N), plus a rescan
        of the few VOQ rows whose peak bound is on top)."""
        return self.state.slot_stats()

    def queue_sizes(self) -> list[int]:
        """Live data cells per input, straight off the ``live`` vector."""
        return self.state.queue_sizes()

    def total_backlog(self) -> int:
        """Queued placeholders (the state's O(1) backlog counter)."""
        return self.state.total_backlog()

    def check_invariants(self) -> None:
        """Deep SoA consistency checks (HOL index vs the deques behind the
        heads vs counters)."""
        self.state.check_invariants()

    def state_arrays(self) -> dict[str, object]:
        """SoA snapshot straight from :class:`SwitchState`."""
        return self.state.state_arrays()


register_backend("vectorized", VectorizedBackend)
