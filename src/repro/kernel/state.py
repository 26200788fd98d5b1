"""Struct-of-arrays switch state — the data model of the vectorized kernel.

The object backend represents the paper's queue structure literally: one
:class:`~repro.core.cells.AddressCell` per pending destination, chained
through per-VOQ deques, each pointing at a heap-allocated
:class:`~repro.core.cells.DataCell`. That is faithful but pointer-chasing:
every scheduling round walks Python objects.

:class:`SwitchState` stores the *same information* flat, keyed by an
integer packet id (``pid``), and keeps next to it an incrementally
maintained **HOL-packet index** — the only state the scheduling rounds
read:

* ``voq_pids``    — N×N deques of pids, the FIFO order of every VOQ (the
  ground truth the index is derived from and checked against).
* ``p_hol``       — per pid, a Python-int bitmask of the outputs where
  that packet's address cell is *at the head* of its VOQ. ``admit`` sets
  the bits of the destination VOQs that were empty; ``serve`` clears the
  served bits and sets the bit of each popped VOQ's new head.
* ``hol_pids``    — N lists, each input's *HOL packets* — the pids with
  a non-zero ``p_hol`` — oldest first. At most N per input however long
  the queues grow, so a request lookup never walks a backlog.
* ``occupancy``   — N lists of N ints, queued address cells per VOQ.
* ``packets`` / ``p_fanout`` / ``p_ts`` — per pid, the
  :class:`~repro.packet.Packet`, the paper's fanout counter and the
  timestamp. A released pid goes onto ``free_pids`` and is handed to a
  later arrival, so the tables stay as long as the peak number of
  simultaneously live packets, not the run.
* ``live``        — N ints, live data cells per input (the paper's
  queue-size metric), plus the ``peak_live`` / ``allocated_total`` /
  ``released_total`` / ``dropped_total`` ledgers and the O(1)
  ``backlog`` / ``residue`` counters.

Why the index is exact. Within one input a timestamp names a packet (an
input admits at most one packet per slot), so "the HOL address cells
carrying the smallest eligible time stamp" of the paper's request step
are the HOL cells of *one* packet: the first pid in ``hol_pids[i]``
whose ``p_hol`` meets the free outputs, and its request is
``p_hol[pid] & free`` (:meth:`SwitchState.hol_request`). The oldest live
packet of an input has every remaining cell at the head of its VOQ —
nothing older is in front of it — so it is always ``hol_pids[i][0]``,
and with all outputs free the lookup stops there.

Every attribute is a plain Python scalar, list or deque: at these sizes
per-entry numpy scalar indexing costs more than the int it updates.
numpy appears only in the snapshots (:meth:`SwitchState.state_arrays`,
:func:`soa_snapshot`), where ``hol_ts`` — the (N, N) float64 matrix of
head-of-line timestamps, ``+inf`` for an empty VOQ — is rebuilt on
demand for the equivalence grid and the sanitizer's state cross-check.
The only Python objects kept are the immutable
:class:`~repro.packet.Packet` references needed to emit
:class:`~repro.packet.Delivery` records. No per-cell objects are ever
allocated.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Any, Sequence

import numpy as np

from repro.errors import BufferError_, ConfigurationError, SchedulingError
from repro.packet import Packet
from repro.utils.validation import check_port_count

__all__ = ["SwitchState", "soa_snapshot"]

#: ``hol_ts`` snapshot value of an empty VOQ.
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
        "occupancy",
        "voq_pids",
        "hol_pids",
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
        "p_hol",
        "free_pids",
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
        self.occupancy: list[list[int]] = [[0] * n for _ in range(n)]
        # FIFO order per VOQ: deques of pids (plain ints, not cells).
        self.voq_pids: list[list[deque[int]]] = [
            [deque() for _ in range(n)] for _ in range(n)
        ]
        #: Per input: the pids heading at least one VOQ, oldest first —
        #: with ``p_hol`` the HOL-packet index the scheduling rounds read.
        self.hol_pids: list[list[int]] = [[] for _ in range(n)]
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
        # Packet table: parallel lists indexed by pid. Released pids are
        # recycled through ``free_pids``, so the tables are as long as
        # the peak number of simultaneously live packets.
        self.packets: list[Packet | None] = []
        self.p_fanout: list[int] = []
        self.p_ts: list[int] = []
        #: Per pid: bitmask of the outputs whose VOQ this packet heads.
        self.p_hol: list[int] = []
        self.free_pids: list[int] = []

    # ------------------------------------------------------------------ #
    # Arrival / service
    # ------------------------------------------------------------------ #
    def admit(self, packet: Packet, slot: int) -> bool:
        """Install one arriving packet (the paper's Table 1, SoA form).

        Allocates a pid carrying the fanout counter, stamps ``slot`` as
        the timestamp of every placeholder, and appends the pid to each
        destination VOQ; the destinations whose VOQ was empty become the
        packet's HOL bits. Returns ``False`` when a finite buffer
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
        destinations = packet.destinations
        occ = self.occupancy[i]
        row = self.voq_pids[i]
        if self.free_pids:
            pid = self.free_pids.pop()
        else:
            # Grow the tables by one slot; happens only while the number
            # of simultaneously live packets sets a new record.
            pid = len(self.packets)
            self.packets.append(None)
            self.p_fanout.append(0)
            self.p_ts.append(0)
            self.p_hol.append(0)
        hol = 0
        for j in destinations:
            dq = row[j]
            if not dq:
                hol |= 1 << j
            dq.append(pid)
            occ[j] += 1
        self.packets[pid] = packet
        self.p_fanout[pid] = len(destinations)
        self.p_ts[pid] = slot
        self.p_hol[pid] = hol
        if hol:
            # The newest packet of its input: arrival order is kept.
            self.hol_pids[i].append(pid)
        self.backlog += len(destinations)
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
        occ = self.occupancy[i]
        p_hol = self.p_hol
        heading = self.hol_pids[i]
        pid = -1
        served_bits = 0
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
            bit = 1 << j
            served_bits |= bit
            if dq:
                head = dq[0]
                if not p_hol[head]:
                    # Its first VOQ head: it joins the HOL packets at its
                    # place in arrival order.
                    insort(heading, head, key=self.p_ts.__getitem__)
                p_hol[head] |= bit
        p_hol[pid] &= ~served_bits
        if not p_hol[pid]:
            heading.remove(pid)
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
            self.free_pids.append(pid)
        elif not was_residue:
            self.residue += 1
        return packet, released

    # ------------------------------------------------------------------ #
    # The HOL-packet index, as the schedulers read it
    # ------------------------------------------------------------------ #
    def hol_request(
        self, input_port: int, free_outputs: int
    ) -> tuple[int, int, int] | None:
        """The request input ``input_port`` sends when ``free_outputs``
        (a bitmask) are still unreserved — the paper's request step.

        Returns ``(timestamp, input_port, output_mask)``: the smallest
        time stamp among the input's HOL address cells at free outputs,
        and every free output whose HOL cell carries it. All of them
        belong to one packet — the oldest pid with a HOL bit among
        ``free_outputs`` — so the lookup walks ``hol_pids`` oldest first
        and stops at the first hit (the first element when every output
        the oldest packet still needs is free). ``None`` when the input
        has nothing eligible.
        """
        p_hol = self.p_hol
        for pid in self.hol_pids[input_port]:
            mask = p_hol[pid] & free_outputs
            if mask:
                return self.p_ts[pid], input_port, mask
        return None

    # ------------------------------------------------------------------ #
    # Metrics / integrity
    # ------------------------------------------------------------------ #
    def queue_sizes(self) -> list[int]:
        """Live data cells per input (the paper's queue-size metric)."""
        return list(self.live)

    def slot_stats(self) -> dict[str, object]:
        """Kernel-seam counters straight off the SoA state.

        Same keys (and, by the equivalence contract, same values) as the
        object model derives from its cell structures — see
        :meth:`repro.kernel.base.KernelBackend.harvest_slot_stats`.
        """
        peak = 0
        for row in self.occupancy:
            m = max(row)
            if m > peak:
                peak = m
        # An input's oldest live packet heads every VOQ it is still in,
        # so the oldest HOL timestamp is the oldest of the N list heads.
        p_ts = self.p_ts
        heads = [p_ts[pids[0]] for pids in self.hol_pids if pids]
        return {
            "live_cells": sum(self.live),
            "residue_cells": self.residue,
            "voq_peak": peak,
            "oldest_hol_ts": min(heads) if heads else None,
        }

    def total_backlog(self) -> int:
        """Pending (packet, destination) pairs = queued placeholders."""
        return self.backlog

    def check_invariants(self) -> None:
        """Deep consistency check, mirroring the object model's checks:
        occupancy/deque agreement, per-VOQ timestamp order, the
        HOL-packet index against the VOQ heads (``p_hol`` names exactly
        the VOQs each queued pid heads, ``hol_pids`` exactly the heading
        pids in arrival order), fanout-counter conservation, live counts,
        the pid pool, and the O(1) backlog and residue counters."""
        n = self.num_ports
        p_ts = self.p_ts
        total_queued = 0
        residue = 0
        for i in range(n):
            queued: dict[int, int] = {}  # pid -> placeholders queued
            heads: dict[int, int] = {}  # pid -> bitmask of VOQs it heads
            for j in range(n):
                dq = self.voq_pids[i][j]
                if len(dq) != self.occupancy[i][j]:
                    raise SchedulingError(f"occupancy drift at VOQ ({i}, {j})")
                if dq:
                    heads[dq[0]] = heads.get(dq[0], 0) | 1 << j
                prev = -1
                for pid in dq:
                    ts = p_ts[pid]
                    if ts < prev:
                        raise SchedulingError(
                            f"VOQ ({i}, {j}) is not timestamp-sorted"
                        )
                    prev = ts
                    queued[pid] = queued.get(pid, 0) + 1
            total_queued += sum(queued.values())
            if len(queued) != self.live[i]:
                raise SchedulingError(
                    f"input {i}: {len(queued)} distinct queued pids but "
                    f"live count is {self.live[i]}"
                )
            for pid, count in queued.items():
                if count != self.p_fanout[pid]:
                    raise SchedulingError(
                        f"pid {pid}: {count} queued placeholders but fanout "
                        f"counter is {self.p_fanout[pid]}"
                    )
                if self.p_hol[pid] != heads.get(pid, 0):
                    raise SchedulingError(
                        f"HOL-index drift at input {i}: pid {pid} heads "
                        f"VOQs {heads.get(pid, 0):#b} but p_hol says "
                        f"{self.p_hol[pid]:#b}"
                    )
                packet = self.packets[pid]
                if packet is None:
                    raise SchedulingError(
                        f"pid {pid} is queued at input {i} but its pool "
                        f"slot was reclaimed"
                    )
                if packet.input_port != i:
                    raise SchedulingError(
                        f"pid {pid} of input {packet.input_port} queued "
                        f"at input {i}"
                    )
                if self.p_fanout[pid] < packet.fanout:
                    residue += 1
            # Strictly increasing: one arrival per input per slot is what
            # lets a timestamp name a packet.
            by_arrival = sorted(heads, key=p_ts.__getitem__)
            if self.hol_pids[i] != by_arrival or any(
                p_ts[a] == p_ts[b] for a, b in zip(by_arrival, by_arrival[1:])
            ):
                raise SchedulingError(
                    f"HOL-index drift at input {i}: hol_pids is "
                    f"{self.hol_pids[i]} but pids {by_arrival} head its "
                    f"VOQs, in arrival order"
                )
        if total_queued != self.backlog:
            raise SchedulingError(
                f"backlog counter {self.backlog} != {total_queued} queued "
                f"placeholders"
            )
        if residue != self.residue:
            raise SchedulingError(
                f"residue counter {self.residue} != {residue} partially "
                f"served live cells"
            )
        if sum(self.live) + len(self.free_pids) != len(self.packets):
            raise SchedulingError(
                f"pid pool leak: {sum(self.live)} live + "
                f"{len(self.free_pids)} free != {len(self.packets)} slots"
            )

    def state_arrays(self) -> dict[str, object]:
        """The SoA state as fresh numpy arrays plus per-input live
        fanout counters (allocation order), shaped like
        :func:`soa_snapshot` output. Everything is read off the VOQs,
        nothing off the HOL-packet index."""
        p_ts = self.p_ts
        p_fanout = self.p_fanout
        hol_ts = np.array(
            [
                [p_ts[dq[0]] if dq else EMPTY_TS for dq in row]
                for row in self.voq_pids
            ],
            dtype=np.float64,
        )
        fanouts = []
        for row in self.voq_pids:
            # An input's live pids; its timestamps are distinct, so
            # sorting by them is allocation order.
            live_pids = sorted(set().union(*row), key=p_ts.__getitem__)
            fanouts.append(
                np.array([p_fanout[pid] for pid in live_pids], dtype=np.int64)
            )
        return {
            "hol_ts": hol_ts,
            "occupancy": np.array(self.occupancy, dtype=np.int64),
            "live": np.array(self.live, dtype=np.int64),
            "fanout_counters": fanouts,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SwitchState(N={self.num_ports}, live={sum(self.live)}, "
            f"backlog={self.backlog})"
        )
