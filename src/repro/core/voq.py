"""Virtual output queues of address cells, and the whole multicast VOQ
input port (paper Fig. 2).

Each input port holds:

* one :class:`~repro.core.buffers.DataCellBuffer` of data cells, and
* ``N`` :class:`VirtualOutputQueue` s of address cells, one per output.

Only the head-of-line address cell of each VOQ is visible to the
scheduler, exactly as in the paper ("only the address cells at the head of
the queues can be scheduled").
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

import numpy as np

from repro.core.buffers import DataCellBuffer
from repro.core.cells import AddressCell
from repro.errors import SchedulingError
from repro.utils.validation import check_index, check_port_count

__all__ = ["VirtualOutputQueue", "MulticastVOQInputPort"]


class VirtualOutputQueue:
    """FIFO of address cells destined for one output port."""

    __slots__ = ("output_port", "_cells", "_peak")

    def __init__(self, output_port: int) -> None:
        self.output_port = output_port
        self._cells: deque[AddressCell] = deque()
        self._peak = 0

    def push(self, cell: AddressCell) -> None:
        """Append an address cell (packet preprocessing)."""
        if cell.output_port != self.output_port:
            raise SchedulingError(
                f"address cell for output {cell.output_port} pushed into "
                f"VOQ {self.output_port}"
            )
        if self._cells and cell.timestamp < self._cells[-1].timestamp:
            # Arrival order == timestamp order is a structural invariant the
            # FIFOMS correctness argument leans on; enforce it at the door.
            raise SchedulingError(
                f"out-of-order push into VOQ {self.output_port}: "
                f"{cell.timestamp} after {self._cells[-1].timestamp}"
            )
        self._cells.append(cell)
        if len(self._cells) > self._peak:
            self._peak = len(self._cells)

    def head(self) -> AddressCell | None:
        """The HOL address cell, or None if the queue is empty."""
        return self._cells[0] if self._cells else None

    def pop_head(self) -> AddressCell:
        """Remove and return the HOL address cell (post-transmission)."""
        if not self._cells:
            raise SchedulingError(f"pop from empty VOQ {self.output_port}")
        return self._cells.popleft()

    @property
    def peak_length(self) -> int:
        return self._peak

    def __len__(self) -> int:
        return len(self._cells)

    def __bool__(self) -> bool:
        return bool(self._cells)

    def __iter__(self) -> Iterator[AddressCell]:
        return iter(self._cells)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualOutputQueue(output={self.output_port}, len={len(self._cells)})"


class MulticastVOQInputPort:
    """One input port of the multicast VOQ switch: data buffer + N VOQs."""

    __slots__ = ("port_index", "num_outputs", "buffer", "voqs")

    def __init__(
        self,
        port_index: int,
        num_outputs: int,
        *,
        buffer_capacity: int | None = None,
        buffer_overflow: str = "raise",
    ) -> None:
        num_outputs = check_port_count(num_outputs, "num_outputs")
        check_index(port_index, 2**31, "port_index")
        self.port_index = port_index
        self.num_outputs = num_outputs
        self.buffer = DataCellBuffer(
            capacity=buffer_capacity, on_overflow=buffer_overflow
        )
        self.voqs: tuple[VirtualOutputQueue, ...] = tuple(
            VirtualOutputQueue(j) for j in range(num_outputs)
        )

    # ------------------------------------------------------------------ #
    # Scheduler-facing views
    # ------------------------------------------------------------------ #
    def hol_cells(self) -> list[AddressCell]:
        """HOL address cells of all non-empty VOQs."""
        return [q._cells[0] for q in self.voqs if q._cells]

    def hol_timestamp(self, output_port: int) -> int | None:
        """Timestamp of the HOL cell of VOQ ``output_port`` (None if empty)."""
        q = self.voqs[output_port]
        return q._cells[0].timestamp if q._cells else None

    def min_hol_timestamp(self, output_free: list[bool] | None = None) -> int | None:
        """Smallest HOL timestamp among VOQs whose output is free.

        ``output_free[j]`` gates VOQ ``j``; ``None`` means all outputs are
        considered free. Returns None when no eligible HOL cell exists.
        This is the input port's comparator of the paper's request step.
        """
        best: int | None = None
        for j, q in enumerate(self.voqs):
            if not q._cells:
                continue
            if output_free is not None and not output_free[j]:
                continue
            ts = q._cells[0].timestamp
            if best is None or ts < best:
                best = ts
        return best

    # ------------------------------------------------------------------ #
    # Struct-of-arrays exports (consumed by repro.kernel)
    # ------------------------------------------------------------------ #
    def hol_timestamp_row(self) -> "np.ndarray":
        """Row ``i`` of the HOL-timestamp matrix in the kernel's state
        snapshots (``state_arrays()["hol_ts"]``): float64 of length
        ``num_outputs``, ``+inf`` where the VOQ is empty."""
        row = np.full(self.num_outputs, np.inf, dtype=np.float64)
        for j, q in enumerate(self.voqs):
            if q._cells:
                row[j] = q._cells[0].timestamp
        return row

    def occupancy_row(self) -> "np.ndarray":
        """Row ``i`` of the kernel's queue-occupancy matrix: int64 counts
        of queued address cells per VOQ."""
        return np.fromiter(
            (len(q) for q in self.voqs), dtype=np.int64, count=self.num_outputs
        )

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    @property
    def queue_size(self) -> int:
        """Paper metric: number of live data cells (unsent packets held)."""
        return self.buffer.occupancy

    @property
    def total_address_cells(self) -> int:
        """Total queued address cells across all VOQs."""
        return sum(len(q) for q in self.voqs)

    @property
    def is_empty(self) -> bool:
        return self.buffer.occupancy == 0

    def check_invariants(self) -> None:
        """Structural consistency checks (used heavily by tests).

        * every VOQ is timestamp-sorted;
        * the sum of live fanout counters equals the number of queued
          address cells (each pending destination has exactly one
          placeholder);
        * every queued address cell points at a live data cell.
        """
        live = set(id(c) for c in self.buffer.live_cells())
        n_addr = 0
        counter_sum = sum(c.fanout_counter for c in self.buffer.live_cells())
        for q in self.voqs:
            prev = None
            for cell in q:
                n_addr += 1
                if id(cell.data_cell) not in live:
                    raise SchedulingError(
                        f"dangling address cell at input {self.port_index}, "
                        f"VOQ {q.output_port}"
                    )
                if prev is not None and cell.timestamp < prev:
                    raise SchedulingError(
                        f"VOQ {q.output_port} at input {self.port_index} "
                        f"is not timestamp-sorted"
                    )
                prev = cell.timestamp
        if n_addr != counter_sum:
            raise SchedulingError(
                f"input {self.port_index}: {n_addr} address cells but fanout "
                f"counters sum to {counter_sum}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MulticastVOQInputPort(index={self.port_index}, "
            f"data_cells={self.buffer.occupancy}, "
            f"address_cells={self.total_address_cells})"
        )
