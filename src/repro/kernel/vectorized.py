"""The ``vectorized`` kernel backend — SoA state, no per-cell objects.

State lives in a :class:`~repro.kernel.state.SwitchState`; scheduling
goes through the scheduler's array entry point
(``schedule_state(state, ...)``, e.g.
:meth:`~repro.core.fifoms.FIFOMSScheduler.schedule_state`) which runs the
request/grant rounds over the state's HOL-packet index — one
``(timestamp, input, output bitmask)`` request per competing input,
granted oldest first with int bit operations. Commit is one
:meth:`SwitchState.serve` per grant (pop the heads, move the HOL bits,
decrement the fanout counter), and :meth:`driver_row` emits the
per-output driver vector consumed by
:meth:`~repro.fabric.crossbar.MulticastCrossbar.configure_drivers`.

Bit-exactness contract: every RNG draw, tie-break, and emission order
matches the ``object`` backend — ``repro.kernel.equivalence`` enforces
this across the scheduler × traffic × faults grid.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError
from repro.kernel.base import KernelBackend, register_backend
from repro.kernel.state import SwitchState
from repro.packet import Delivery, Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy.typing as npt

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
        self._driver = np.empty(num_ports, dtype=np.int64)

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
        """Dispatch to the scheduler's ``schedule_state`` array entry."""
        schedule_state = getattr(scheduler, "schedule_state", None)
        if schedule_state is None:
            raise ConfigurationError(
                f"scheduler {getattr(scheduler, 'name', type(scheduler).__name__)!r} "
                f"has no schedule_state entry point; it cannot drive the "
                f"'vectorized' kernel backend"
            )
        decision: ScheduleDecision = schedule_state(
            self.state, input_free=input_free, output_free=output_free
        )
        return decision

    def commit(
        self, decision: ScheduleDecision, result: "SlotResult", slot: int
    ) -> None:
        """Post-transmission processing over the SoA state: one
        :meth:`SwitchState.serve` per granted input pops the HOL
        placeholders, hands their HOL bits to the new heads and
        decrements the fanout counter in one subtract."""
        deliveries = result.deliveries
        for input_port, grant in decision.grants.items():
            packet, released = self.state.serve(input_port, grant.output_ports)
            for j in grant.output_ports:
                deliveries.append(
                    Delivery(packet=packet, output_port=j, service_slot=slot)
                )
            if released:
                result.reclaimed += 1
            else:
                result.splits += 1

    def driver_row(self, decision: ScheduleDecision) -> npt.NDArray[np.int64]:
        """Per-output driver vector (int64, -1 = idle) for the crossbar's
        array configuration path."""
        row = [-1] * self.num_ports
        for input_port, grant in decision.grants.items():
            for j in grant.output_ports:
                row[j] = input_port
        driver = self._driver
        driver[:] = row
        return driver

    def harvest_slot_stats(self) -> dict[str, object]:
        """Kernel-seam counters off the SoA state (one N×N occupancy
        scan, the rest O(N))."""
        return self.state.slot_stats()

    def queue_sizes(self) -> list[int]:
        """Live data cells per input, straight off the ``live`` vector."""
        return self.state.queue_sizes()

    def total_backlog(self) -> int:
        """Queued placeholders (the state's O(1) backlog counter)."""
        return self.state.total_backlog()

    def check_invariants(self) -> None:
        """Deep SoA consistency checks (deques vs HOL index vs counters)."""
        self.state.check_invariants()

    def state_arrays(self) -> dict[str, object]:
        """SoA snapshot straight from :class:`SwitchState`."""
        return self.state.state_arrays()


register_backend("vectorized", VectorizedBackend)
