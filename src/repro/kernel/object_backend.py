"""The ``object`` kernel backend — reference per-cell semantics.

This is the paper's queue structure taken literally: each input port is a
:class:`~repro.core.voq.MulticastVOQInputPort` holding real
:class:`~repro.core.cells.AddressCell` / :class:`~repro.core.cells.DataCell`
objects. The code here is the arrival/transfer logic that used to live
inline in :class:`~repro.switch.voq_multicast.MulticastVOQSwitch`, moved
behind the :class:`~repro.kernel.base.KernelBackend` interface so the
vectorized backend can be swapped in without touching the switch layer.

The object backend is the *reference*: the equivalence harness treats its
output stream as ground truth and requires the vectorized backend to
match it bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.matching import ScheduleDecision
from repro.core.preprocess import preprocess_packet
from repro.core.voq import MulticastVOQInputPort
from repro.errors import SchedulingError
from repro.kernel.base import KernelBackend, register_backend
from repro.kernel.state import soa_snapshot
from repro.packet import Packet
from repro.utils.bitsets import iter_bits

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.switch.base import SlotResult

__all__ = ["ObjectBackend"]


class ObjectBackend(KernelBackend):
    """Per-cell object state behind the kernel interface."""

    name = "object"

    def __init__(
        self,
        num_ports: int,
        *,
        buffer_capacity: int | None = None,
        buffer_overflow: str = "raise",
    ) -> None:
        self.num_ports = num_ports
        self.ports: tuple[MulticastVOQInputPort, ...] = tuple(
            MulticastVOQInputPort(
                i,
                num_ports,
                buffer_capacity=buffer_capacity,
                buffer_overflow=buffer_overflow,
            )
            for i in range(num_ports)
        )

    def admit(self, packet: Packet, slot: int) -> bool:
        """Paper Table 1: allocate the data cell, fan out address cells.

        Returns False when a finite drop-tail buffer refuses the packet.
        """
        return preprocess_packet(self.ports[packet.input_port], packet, slot) is not None

    def schedule(
        self,
        scheduler: Any,
        *,
        input_free: list[bool] | None = None,
        output_free: list[bool] | None = None,
    ) -> ScheduleDecision:
        """Hand the port objects to the scheduler's object-model entry."""
        decision: ScheduleDecision
        if input_free is None and output_free is None:
            decision = scheduler.schedule(self.ports)
        else:
            decision = scheduler.schedule(
                self.ports, input_free=input_free, output_free=output_free
            )
        return decision

    def commit(
        self, decision: ScheduleDecision, result: "SlotResult", slot: int
    ) -> None:
        """Paper step 4, post-transmission processing: pop every granted
        HOL address cell, decrement the shared fanout counter once per
        served destination, destroy the data cell when it is exhausted."""
        for input_port, mask in self.driver_row(decision):
            port = self.ports[input_port]
            # Pop every granted HOL address cell; they must all point to
            # one data cell (the paper's "no accept step needed" argument).
            cells = [port.voqs[j].pop_head() for j in iter_bits(mask)]
            data_cell = cells[0].data_cell
            for cell in cells[1:]:
                if cell.data_cell is not data_cell:
                    raise SchedulingError(
                        f"input {input_port} granted two distinct data cells "
                        f"in one slot (timestamps "
                        f"{[c.timestamp for c in cells]})"
                    )
            result.rows.append((data_cell.packet, mask))
            result.cells_delivered += len(cells)
            released = False
            for cell in cells:
                if port.buffer.record_service(data_cell):
                    released = True
            if released:
                result.reclaimed += 1
            else:
                result.splits += 1

    def harvest_slot_stats(self) -> dict[str, object]:
        """Kernel-seam counters from the cell structures (O(live cells)).

        Residue means a data cell whose ``fanout_counter`` has been
        decremented below the packet's full fanout but not to zero — the
        leftover of a fanout split. The vectorized backend maintains the
        same count incrementally; the equivalence harness checks they
        agree on every case of the grid.
        """
        live = 0
        residue = 0
        voq_peak = 0
        oldest: int | None = None
        for port in self.ports:
            live += port.queue_size
            for cell in port.buffer.live_cells():
                if cell.fanout_counter < cell.packet.fanout:
                    residue += 1
            peak = int(port.occupancy_row().max(initial=0))
            if peak > voq_peak:
                voq_peak = peak
            hol = port.min_hol_timestamp()
            if hol is not None and (oldest is None or hol < oldest):
                oldest = hol
        return {
            "live_cells": live,
            "residue_cells": residue,
            "voq_peak": voq_peak,
            "oldest_hol_ts": oldest,
        }

    def queue_sizes(self) -> list[int]:
        """Live data cells (unsent packets) per input port."""
        return [p.queue_size for p in self.ports]

    def total_backlog(self) -> int:
        """Pending (packet, destination) pairs = queued address cells."""
        return sum(p.total_address_cells for p in self.ports)

    def check_invariants(self) -> None:
        """Delegate to every port's structural self-checks."""
        for p in self.ports:
            p.check_invariants()

    def state_arrays(self) -> dict[str, object]:
        """SoA snapshot derived from the object model (equivalence tap)."""
        return soa_snapshot(self.ports)


register_backend("object", ObjectBackend)
