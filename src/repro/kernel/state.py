"""Struct-of-arrays switch state — the data model of the vectorized kernel.

The object backend represents the paper's queue structure literally: one
:class:`~repro.core.cells.AddressCell` per pending destination, chained
through per-VOQ deques, each pointing at a heap-allocated
:class:`~repro.core.cells.DataCell`. That is faithful but pointer-chasing:
every scheduling round walks Python objects.

:class:`SwitchState` stores the *same information* flat, in the spirit of
the linear-algebraic view of input-queued scheduling and the Tiny Tera's
array-shaped arbitration kernel:

* ``hol_ts``      — (N, N) float64 numpy, head-of-line timestamp of VOQ
  (i, j), ``+inf`` when empty. This matrix *is* the FIFOMS request state:
  one masked row-min gives every input's smallest eligible timestamp, and
  it is the only state the scheduling rounds ever read.
* ``occupancy``   — plain list of N lists of N ints, queued address
  cells per VOQ.
* ``p_fanout``    — plain list of ints, the paper's fanout counter
  indexed by packet id.
* ``live``        — plain list of N ints, live data cells per input (the
  paper's queue-size metric).
* ``input_free`` / ``output_free`` — (N,) bool numpy scratch for the
  scheduling rounds (the complement of the output-busy vectors a hardware
  arbiter would keep), plus preallocated numpy round scratch: (N, N)
  ``ts_scratch`` / ``col_scratch`` (float64) and ``req_scratch`` /
  ``win_scratch`` (bool), and (N,) float64 ``row_min_scratch`` /
  ``col_min_scratch`` with their (N, 1) ``row_min_col`` and (1, N)
  ``col_min_row`` views.

``hol_ts`` and those ten scratch arrays are the only numpy attributes;
every other attribute is a plain Python scalar, list or list of deques.

Packet *identity* is an integer ``pid`` (allocation order) into parallel
Python lists — numpy is reserved for the matrix math where it wins, and
per-entry counter updates stay plain ints where numpy scalar indexing
would dominate. The only Python objects kept are the immutable
:class:`~repro.packet.Packet` references needed to emit
:class:`~repro.packet.Delivery` records and per-VOQ deques of pids. No
per-cell objects are ever allocated.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Sequence

import numpy as np

from repro.errors import BufferError_, ConfigurationError, SchedulingError
from repro.packet import Packet
from repro.utils.validation import check_port_count

__all__ = ["SwitchState", "soa_snapshot"]

#: ``hol_ts`` sentinel for an empty VOQ — compares greater than any real
#: timestamp, so masked minima ignore empty queues for free.
EMPTY_TS = np.inf


def soa_snapshot(ports: Sequence[Any]) -> dict[str, object]:
    """Struct-of-arrays view of an object-model port row.

    ``ports`` is a sequence of
    :class:`~repro.core.voq.MulticastVOQInputPort` (duck-typed through
    their ``hol_timestamp_row`` / ``occupancy_row`` / ``fanout_counters``
    SoA exports). The returned dict mirrors the arrays a live
    :class:`SwitchState` maintains incrementally — the equivalence
    harness compares the two at end of run, which pins the object and
    vectorized backends to one state, not merely one output stream.
    """
    n = len(ports)
    hol_ts = np.full((n, n), EMPTY_TS, dtype=np.float64)
    occupancy = np.zeros((n, n), dtype=np.int64)
    live = np.zeros(n, dtype=np.int64)
    fanouts: list[Any] = []
    for i, port in enumerate(ports):
        hol_ts[i] = port.hol_timestamp_row()
        occupancy[i] = port.occupancy_row()
        live[i] = port.queue_size
        fanouts.append(port.buffer.fanout_counters())
    return {
        "hol_ts": hol_ts,
        "occupancy": occupancy,
        "live": live,
        "fanout_counters": fanouts,
    }


class SwitchState:
    """Flat twin of ``N`` multicast VOQ input ports.

    Construction parameters mirror
    :class:`~repro.core.buffers.DataCellBuffer`: ``buffer_capacity``
    bounds live data cells *per input*; on overflow the state either
    raises :class:`~repro.errors.BufferError_` (``"raise"``) or
    drop-tails the arriving packet (``"drop"``).
    """

    __slots__ = (
        "num_ports",
        "capacity",
        "on_overflow",
        "hol_ts",
        "occupancy",
        "voq_pids",
        "live",
        "peak_live",
        "allocated_total",
        "released_total",
        "dropped_total",
        "backlog",
        "residue",
        "packets",
        "p_fanout",
        "p_ts",
        "p_input",
        "input_free",
        "output_free",
        "ts_scratch",
        "col_scratch",
        "req_scratch",
        "win_scratch",
        "row_min_scratch",
        "col_min_scratch",
        "row_min_col",
        "col_min_row",
    )

    def __init__(
        self,
        num_ports: int,
        *,
        buffer_capacity: int | None = None,
        buffer_overflow: str = "raise",
    ) -> None:
        n = check_port_count(num_ports)
        if buffer_capacity is not None and buffer_capacity < 1:
            raise ConfigurationError(
                f"buffer capacity must be >= 1, got {buffer_capacity}"
            )
        if buffer_overflow not in ("raise", "drop"):
            raise ConfigurationError(
                f"on_overflow must be 'raise' or 'drop', got {buffer_overflow!r}"
            )
        self.num_ports = n
        self.capacity = buffer_capacity
        self.on_overflow = buffer_overflow
        self.hol_ts = np.full((n, n), EMPTY_TS, dtype=np.float64)
        self.occupancy: list[list[int]] = [[0] * n for _ in range(n)]
        # FIFO order per VOQ: deques of pids (plain ints, not cells).
        self.voq_pids: list[list[deque[int]]] = [
            [deque() for _ in range(n)] for _ in range(n)
        ]
        self.live: list[int] = [0] * n
        self.peak_live: list[int] = [0] * n
        self.allocated_total: list[int] = [0] * n
        self.released_total: list[int] = [0] * n
        self.dropped_total: list[int] = [0] * n
        #: Total queued placeholders (pending deliveries), kept O(1).
        self.backlog = 0
        #: Live data cells already partially served (fanout residue),
        #: kept O(1) across serve() — the kernel-seam telemetry reads it
        #: every slot, so a recount would dominate instrumented runs.
        self.residue = 0
        # Packet table: parallel lists indexed by pid (allocation order).
        self.packets: list[Packet | None] = []
        self.p_fanout: list[int] = []
        self.p_ts: list[int] = []
        self.p_input: list[int] = []
        # Round-loop scratch, allocated once and reused by the vectorized
        # scheduler entry points (masked timestamps, request/winner masks).
        self.input_free = np.ones(n, dtype=bool)
        self.output_free = np.ones(n, dtype=bool)
        self.ts_scratch = np.empty((n, n), dtype=np.float64)
        self.col_scratch = np.empty((n, n), dtype=np.float64)
        self.req_scratch = np.empty((n, n), dtype=bool)
        self.win_scratch = np.empty((n, n), dtype=bool)
        self.row_min_scratch = np.empty(n, dtype=np.float64)
        self.col_min_scratch = np.empty(n, dtype=np.float64)
        # (N, 1) / (1, N) broadcast views of the two min vectors, shaped
        # once so the round loop's equality masks need no per-call reshape.
        self.row_min_col = self.row_min_scratch.reshape(n, 1)
        self.col_min_row = self.col_min_scratch.reshape(1, n)

    # ------------------------------------------------------------------ #
    # Arrival / service
    # ------------------------------------------------------------------ #
    def admit(self, packet: Packet, slot: int) -> bool:
        """Install one arriving packet (the paper's Table 1, SoA form).

        Allocates a pid carrying the fanout counter, stamps ``slot`` as
        the timestamp of every placeholder, and appends the pid to each
        destination VOQ. Returns ``False`` when a finite buffer
        drop-tails the packet; raises :class:`~repro.errors.BufferError_`
        under the ``"raise"`` overflow policy.
        """
        i = packet.input_port
        live = self.live
        if self.capacity is not None and live[i] >= self.capacity:
            if self.on_overflow == "drop":
                self.dropped_total[i] += 1
                return False
            raise BufferError_(
                f"data-cell buffer overflow: capacity {self.capacity} reached"
            )
        pid = len(self.packets)
        self.packets.append(packet)
        self.p_fanout.append(packet.fanout)
        self.p_ts.append(slot)
        self.p_input.append(i)
        hol = self.hol_ts[i]
        occ = self.occupancy[i]
        row = self.voq_pids[i]
        for j in packet.destinations:
            dq = row[j]
            if not dq:
                hol[j] = slot
            dq.append(pid)
            occ[j] += 1
        self.backlog += packet.fanout
        live[i] += 1
        self.allocated_total[i] += 1
        if live[i] > self.peak_live[i]:
            self.peak_live[i] = live[i]
        return True

    def serve(
        self, input_port: int, output_ports: tuple[int, ...]
    ) -> tuple[Packet, bool]:
        """Pop the HOL placeholder of each granted VOQ and decrement the
        packet's fanout counter (post-transmission processing).

        All granted heads must carry one pid — the paper's "one data cell
        per input per slot" invariant — otherwise
        :class:`~repro.errors.SchedulingError` is raised. Returns the
        served packet and whether its buffer space was reclaimed (fanout
        counter hit zero).
        """
        i = input_port
        row = self.voq_pids[i]
        hol = self.hol_ts[i]
        occ = self.occupancy[i]
        p_ts = self.p_ts
        pid = -1
        for j in output_ports:
            dq = row[j]
            if not dq:
                raise SchedulingError(f"grant for empty VOQ ({i}, {j})")
            p = dq.popleft()
            if pid < 0:
                pid = p
            elif p != pid:
                raise SchedulingError(
                    f"input {i} granted two distinct data cells in one slot "
                    f"(pids {pid} and {p})"
                )
            occ[j] -= 1
            hol[j] = p_ts[dq[0]] if dq else EMPTY_TS
        served = len(output_ports)
        before = self.p_fanout[pid]
        remaining = before - served
        if remaining < 0:
            raise BufferError_(f"fanout_counter underflow for pid {pid} at input {i}")
        self.p_fanout[pid] = remaining
        self.backlog -= served
        packet = self.packets[pid]
        assert packet is not None
        was_residue = before < packet.fanout
        released = remaining == 0
        if released:
            if was_residue:
                self.residue -= 1
            self.live[i] -= 1
            self.released_total[i] += 1
            self.packets[pid] = None  # the pool slot is reclaimed
        elif not was_residue:
            self.residue += 1
        return packet, released

    # ------------------------------------------------------------------ #
    # Metrics / integrity
    # ------------------------------------------------------------------ #
    def queue_sizes(self) -> list[int]:
        """Live data cells per input (the paper's queue-size metric)."""
        return list(self.live)

    def slot_stats(self) -> dict[str, object]:
        """Kernel-seam counters straight off the SoA arrays.

        Same keys (and, by the equivalence contract, same values) as the
        object model derives from its cell structures — see
        :meth:`repro.kernel.base.KernelBackend.harvest_slot_stats`.
        """
        peak = 0
        for row in self.occupancy:
            m = max(row)
            if m > peak:
                peak = m
        oldest = self.hol_ts.min()
        return {
            "live_cells": sum(self.live),
            "residue_cells": self.residue,
            "voq_peak": peak,
            "oldest_hol_ts": None if oldest == EMPTY_TS else int(oldest),
        }

    def total_backlog(self) -> int:
        """Pending (packet, destination) pairs = queued placeholders."""
        return self.backlog

    def check_invariants(self) -> None:
        """Deep consistency check, mirroring the object model's checks:
        occupancy/deque agreement, HOL timestamp agreement, per-VOQ
        timestamp order, fanout-counter conservation, live counts, and
        the O(1) backlog counter."""
        n = self.num_ports
        queued = [0] * len(self.packets)
        total_queued = 0
        for i in range(n):
            live_pids: set[int] = set()
            for j in range(n):
                dq = self.voq_pids[i][j]
                if len(dq) != self.occupancy[i][j]:
                    raise SchedulingError(f"occupancy drift at VOQ ({i}, {j})")
                head = self.p_ts[dq[0]] if dq else EMPTY_TS
                if head != self.hol_ts[i, j]:
                    raise SchedulingError(f"HOL-timestamp drift at VOQ ({i}, {j})")
                prev = -1
                for pid in dq:
                    if self.p_input[pid] != i:
                        raise SchedulingError(
                            f"pid {pid} of input {self.p_input[pid]} queued "
                            f"at input {i}"
                        )
                    ts = self.p_ts[pid]
                    if ts < prev:
                        raise SchedulingError(
                            f"VOQ ({i}, {j}) is not timestamp-sorted"
                        )
                    prev = ts
                    queued[pid] += 1
                    total_queued += 1
                    live_pids.add(pid)
            if len(live_pids) != self.live[i]:
                raise SchedulingError(
                    f"input {i}: {len(live_pids)} distinct queued pids but "
                    f"live count is {self.live[i]}"
                )
        for pid, count in enumerate(queued):
            if count and count != self.p_fanout[pid]:
                raise SchedulingError(
                    f"pid {pid}: {count} queued placeholders but fanout "
                    f"counter is {self.p_fanout[pid]}"
                )
        if total_queued != self.backlog:
            raise SchedulingError(
                f"backlog counter {self.backlog} != {total_queued} queued "
                f"placeholders"
            )
        residue = 0
        for pid, count in enumerate(queued):
            if count:
                packet = self.packets[pid]
                assert packet is not None
                if self.p_fanout[pid] < packet.fanout:
                    residue += 1
        if residue != self.residue:
            raise SchedulingError(
                f"residue counter {self.residue} != {residue} partially "
                f"served live cells"
            )

    def state_arrays(self) -> dict[str, object]:
        """Copies of the SoA state as numpy arrays plus per-input live
        fanout counters (allocation order), shaped like
        :func:`soa_snapshot` output."""
        fanouts: list[list[int]] = [[] for _ in range(self.num_ports)]
        for pid, remaining in enumerate(self.p_fanout):
            if remaining > 0:
                fanouts[self.p_input[pid]].append(remaining)
        return {
            "hol_ts": self.hol_ts.copy(),
            "occupancy": np.array(self.occupancy, dtype=np.int64),
            "live": np.array(self.live, dtype=np.int64),
            "fanout_counters": [np.array(f, dtype=np.int64) for f in fanouts],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SwitchState(N={self.num_ports}, live={sum(self.live)}, "
            f"backlog={self.backlog})"
        )
