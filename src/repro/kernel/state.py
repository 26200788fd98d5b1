"""Struct-of-arrays switch state — the data model of the vectorized kernel.

The reference model (:mod:`repro.verify.reference`) represents the
paper's queue structure literally: one
:class:`~repro.verify.reference.AddressCell` per pending destination,
chained through per-VOQ deques, each pointing at a heap-allocated
:class:`~repro.verify.reference.DataCell`. That is faithful but
pointer-chasing: every scheduling round walks Python objects.

:class:`SwitchState` stores the *same information* flat, keyed by an
integer packet id (``pid``), and keeps next to it an incrementally
maintained **HOL-packet index** — the only state the scheduling rounds
read:

* ``p_hol``       — per pid, a Python-int bitmask of the outputs where
  that packet's address cell is *at the head* of its VOQ. This is the
  only place a VOQ's head lives: the scheduler reads nothing else (the
  paper's rounds look at head address cells only). ``admit`` sets the
  bits of the destination VOQs that were empty; ``serve`` clears the
  served bits and sets the bit of each popped VOQ's new head.
  :meth:`~SwitchState.serve_rows` walks a whole slot's ``(input, mask)``
  grants in one loop; :meth:`~SwitchState.serve` is one grant of it.
* ``hol_pids``    — N lists, each input's *HOL packets* — the pids with
  a non-zero ``p_hol`` — oldest first. At most N per input however long
  the queues grow, so a request lookup never walks a backlog.
* ``behind``      — N dicts ``{output: deque[pid]}``, the cells queued
  *behind* each VOQ's head, oldest first. A deque exists only while its
  VOQ holds two cells or more: ``admit`` creates it for the VOQ's second
  cell, ``serve`` deletes it when the VOQ drains back to one. Nothing is
  allocated per VOQ up front, so a 256-port state starts as 256 empty
  dicts; at N = 256, b = 0.05 under load 0.8 about 5 of the ~580
  non-empty VOQs have one.
* ``deep``        — N int bitmasks of the outputs that have a ``behind``
  deque: a grant pops a deque only for ``mask & deep[i]``.
* ``nonempty``    — N int bitmasks of the non-empty VOQs: ``admit`` ORs in
  the destination mask ``dmask`` (the HOL bits are ``dmask & ~nonempty[i]``,
  the queued ones ``dmask & nonempty[i]``), ``serve`` clears the bits of
  the VOQs it empties (``~mask | mask & deep[i]``). It equals the union
  of the input's ``p_hol`` masks, which are disjoint.
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

Every attribute is a plain Python scalar, list, dict or deque: at these sizes
per-entry numpy scalar indexing costs more than the int it updates.
numpy appears only in the snapshot (:meth:`SwitchState.state_arrays`),
where ``hol_ts`` — the (N, N) float64 matrix of head-of-line
timestamps, ``+inf`` for an empty VOQ — is rebuilt on demand from
``hol_pids`` / ``p_hol`` for the reference shadow's state cross-check.
The only Python objects kept are the immutable
:class:`~repro.packet.Packet` references commit puts in the slot's
``(packet, output_mask)`` rows. No per-cell objects are ever allocated.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from collections.abc import Callable, Iterable
from typing import NoReturn

import numpy as np

from repro.errors import BufferError_, ConfigurationError, SchedulingError
from repro.packet import Packet
from repro.utils.bitsets import iter_bits
from repro.utils.validation import check_port_count

__all__ = ["SwitchState"]

#: ``hol_ts`` snapshot value of an empty VOQ.
EMPTY_TS = np.inf


class SwitchState:
    """Flat twin of ``N`` multicast VOQ input ports.

    Construction parameters mirror
    :class:`~repro.verify.reference.ReferenceFIFOMS`: ``buffer_capacity``
    bounds live data cells *per input*; on overflow the state either
    raises :class:`~repro.errors.BufferError_` (``"raise"``) or
    drop-tails the arriving packet (``"drop"``).
    """

    __slots__ = (
        "num_ports",
        "capacity",
        "on_overflow",
        "nonempty",
        "row_peak", "seen_allocated", "grown_rows",
        "behind",
        "deep",
        "bit",
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
                f"buffer_overflow must be 'raise' or 'drop', got {buffer_overflow!r}"
            )
        self.num_ports = n
        self.capacity = buffer_capacity
        self.on_overflow = buffer_overflow
        #: Per input: bitmask of its non-empty VOQs.
        self.nonempty: list[int] = [0] * n
        #: Per input as of slot_stats(): a bound on its largest VOQ count.
        self.row_peak: list[int] = [0] * n
        self.seen_allocated: list[int] = [0] * n
        self.grown_rows = 0
        #: Per input: {output: the pids queued behind that VOQ's head}.
        self.behind: list[dict[int, deque[int]]] = [{} for _ in range(n)]
        #: Per input: bitmask of the outputs that have a ``behind`` deque.
        self.deep: list[int] = [0] * n
        #: ``bit[j] == 1 << j``, read per destination by admit.
        self.bit: list[int] = [1 << j for j in range(n)]
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

        Allocates a pid carrying the fanout counter and stamps ``slot`` as
        the timestamp of every placeholder. The destinations whose VOQ
        was empty become the packet's HOL bits; at the others the pid
        queues behind the head. Returns ``False`` when a finite buffer
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
        bit, deep = self.bit, self.deep[i]
        dmask = 0
        if deep:  # a VOQ of this input has a deque: queue behind its head
            row = self.behind[i]
            for j in destinations:
                b = bit[j]
                dmask |= b
                if b & deep:
                    row[j].append(pid)
        else:
            for j in destinations:
                dmask |= bit[j]
        nonempty = self.nonempty
        occupied = nonempty[i]
        nonempty[i] = occupied | dmask
        hol = dmask & ~occupied
        second = dmask & occupied & ~deep
        if second:
            # The VOQ's second cell: it starts the deque behind the head.
            row = self.behind[i]
            bits = second
            while bits:
                b = bits & -bits
                bits ^= b
                row[b.bit_length() - 1] = deque((pid,))
            self.deep[i] = deep | second
        self.grown_rows |= 1 << i
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

    def serve(self, input_port: int, mask: int) -> tuple[Packet, bool]:
        """:meth:`serve_rows` over one grant; returns the served packet and
        whether its buffer space was reclaimed (fanout counter hit zero)."""
        rows: list[tuple[Packet, int]] = []
        released = self.serve_rows(((input_port, mask),), rows.append)
        return rows[0][0], released == 1

    def serve_rows(
        self,
        grants: Iterable[tuple[int, int]],
        append: Callable[[tuple[Packet, int]], object],
    ) -> int:
        """Post-transmission processing of a slot's ``(input, mask)``
        grants, in order: clear the packet's HOL bits in the output
        bitmask, pop the cell behind each granted head that has one (it
        becomes the new head), decrement the packet's fanout counter and
        ``append((packet, mask))``.

        The granted heads of one input must all be one packet's — the
        paper's "one data cell per input per slot" invariant — and every
        granted VOQ non-empty; otherwise
        :class:`~repro.errors.SchedulingError` is raised before that grant
        changes anything. Returns how many packets were released (fanout
        counter hit zero). ``backlog`` and ``residue`` are written back
        once, also when a grant raises.
        """
        behind, deep, hol_pids, nonempty = self.behind, self.deep, self.hol_pids, self.nonempty
        p_hol, p_ts, p_fanout = self.p_hol, self.p_ts, self.p_fanout
        packets, live, free_pids = self.packets, self.live, self.free_pids
        backlog, residue = self.backlog, self.residue
        reclaimed = 0
        try:
            for i, mask in grants:
                heading = hol_pids[i]
                for pid in heading:
                    if p_hol[pid] & mask:
                        held = p_hol[pid]
                        break
                else:
                    held = 0
                if mask & ~held or not mask:
                    self._refuse(i, mask)
                served = mask.bit_count()
                before = p_fanout[pid]
                remaining = before - served
                if remaining < 0:
                    raise BufferError_(f"fanout_counter underflow for pid {pid} at input {i}")
                kept = mask & deep[i]  # the granted VOQs a cell is left in
                if kept:
                    row = behind[i]
                    bits = kept
                    while bits:
                        bit = bits & -bits
                        bits ^= bit
                        j = bit.bit_length() - 1
                        dq = row[j]
                        head = dq.popleft()
                        if not dq:
                            del row[j]
                            deep[i] ^= bit
                        if not p_hol[head]:
                            # Its first VOQ head: it joins the HOL packets at
                            # its place in arrival order.
                            insort(heading, head, key=p_ts.__getitem__)
                        p_hol[head] |= bit
                nonempty[i] &= ~mask | kept
                p_hol[pid] = held ^ mask
                if held == mask:
                    heading.remove(pid)
                p_fanout[pid] = remaining
                backlog -= served
                packet = packets[pid]
                assert packet is not None
                was_residue = before < len(packet.destinations)
                if remaining == 0:
                    if was_residue:
                        residue -= 1
                    live[i] -= 1
                    self.released_total[i] += 1
                    packets[pid] = None  # the pool slot is reclaimed
                    free_pids.append(pid)
                    reclaimed += 1
                elif not was_residue:
                    residue += 1
                append((packet, mask))
        finally:
            self.backlog, self.residue = backlog, residue
        return reclaimed

    def _refuse(self, i: int, mask: int) -> NoReturn:
        """Raise the :class:`~repro.errors.SchedulingError` for a grant
        that is not a subset of one HOL packet's heads: the first granted
        output, ascending, that is empty or headed by a second packet."""
        pid = -1
        for j in iter_bits(mask):
            head = next((p for p in self.hol_pids[i] if self.p_hol[p] >> j & 1), -1)
            if not self.nonempty[i] >> j & 1 or head < 0:
                raise SchedulingError(f"grant for empty VOQ ({i}, {j})")
            if pid < 0:
                pid = head
            elif head != pid:
                raise SchedulingError(
                    f"input {i} granted two distinct data cells in one slot "
                    f"(pids {pid} and {head})"
                )
        raise SchedulingError(f"input {i} granted the output mask {mask:#b}")

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
        reference model derives from its cell structures — see
        :meth:`repro.kernel.base.KernelBackend.harvest_slot_stats`.
        """
        # Bounds: an admit adds at most one to a row's peak, serve only
        # lowers it, live cells cap it. Rescan the top row till exact.
        bounds, seen = self.row_peak, self.seen_allocated
        allocated, grown, self.grown_rows = self.allocated_total, self.grown_rows, 0
        while grown:
            i = (grown & -grown).bit_length() - 1
            grown &= grown - 1
            bounds[i] = min(self.live[i], bounds[i] + allocated[i] - seen[i])
            seen[i] = allocated[i]
        while True:
            peak = max(bounds)
            i = bounds.index(peak)
            row = self.behind[i]
            bounds[i] = 1 + max(map(len, row.values())) if row else int(self.nonempty[i] != 0)
            if bounds[i] == peak:
                break
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
        """Deep consistency check, mirroring the reference model's checks:
        an input's ``p_hol`` masks are disjoint and ``hol_pids`` names
        exactly its heading pids in arrival order; their union is
        ``nonempty``; ``deep`` names exactly the ``behind`` deques, each
        non-empty, under a head and younger than it in ascending order;
        each pid's fanout counter is its head bits plus its queued cells;
        then live counts, the pid pool, and the O(1) backlog and residue
        counters."""
        n = self.num_ports
        p_ts, p_hol, p_fanout = self.p_ts, self.p_hol, self.p_fanout
        owned: list[list[int]] = [[] for _ in range(n)]  # live pids per input
        for pid, packet in enumerate(self.packets):
            if packet is not None:
                owned[packet.input_port].append(pid)
        total_queued = 0
        residue = 0
        for i in range(n):
            heads: dict[int, int] = {}  # pid -> bitmask of VOQs it heads
            union = 0
            for pid in owned[i]:
                if p_hol[pid]:
                    if p_hol[pid] & union:
                        raise SchedulingError(
                            f"HOL-index drift at input {i}: pid {pid} claims "
                            f"VOQs {p_hol[pid] & union:#b} another pid heads"
                        )
                    heads[pid] = p_hol[pid]
                    union |= p_hol[pid]
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
            if union != self.nonempty[i]:
                raise SchedulingError(
                    f"non-empty mask drift at input {i}: VOQs {union:#b} "
                    f"have a head but nonempty says {self.nonempty[i]:#b}"
                )
            row = self.behind[i]
            deep = sum(1 << j for j in row)
            if deep != self.deep[i] or deep & ~union:
                raise SchedulingError(
                    f"deep mask drift at input {i}: VOQs {deep:#b} have a "
                    f"queue behind their head but deep says {self.deep[i]:#b} "
                    f"(heads at {union:#b})"
                )
            queued: dict[int, int] = {}  # pid -> cells queued behind heads
            for j, dq in row.items():
                prev = next(p_ts[pid] for pid, m in heads.items() if m >> j & 1)
                if not dq:
                    raise SchedulingError(f"VOQ ({i}, {j}) keeps an empty deque")
                for pid in dq:
                    if p_ts[pid] <= prev:
                        raise SchedulingError(
                            f"VOQ ({i}, {j}) is not timestamp-sorted behind its head"
                        )
                    prev = p_ts[pid]
                    queued[pid] = queued.get(pid, 0) + 1
            stray = queued.keys() - set(owned[i])
            if stray:
                raise SchedulingError(
                    f"pids {sorted(stray)} are queued at input {i} but are "
                    f"not live packets of it"
                )
            if len(owned[i]) != self.live[i]:
                raise SchedulingError(
                    f"input {i}: {len(owned[i])} live pids but live count is "
                    f"{self.live[i]}"
                )
            for pid in owned[i]:
                cells = p_hol[pid].bit_count() + queued.get(pid, 0)
                if not cells or cells != p_fanout[pid]:
                    raise SchedulingError(
                        f"pid {pid}: {cells} queued placeholders (heads and "
                        f"behind) but fanout counter is {p_fanout[pid]}"
                    )
                total_queued += cells
                if p_fanout[pid] < self.packets[pid].fanout:  # type: ignore[union-attr]
                    residue += 1
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
        fanout counters (allocation order), shaped like the reference
        kernel's snapshot: heads off ``hol_pids`` / ``p_hol``, the cells
        behind them off ``behind``."""
        n = self.num_ports
        p_ts, p_hol, p_fanout = self.p_ts, self.p_hol, self.p_fanout
        hol_ts = np.full((n, n), EMPTY_TS, dtype=np.float64)
        occupancy = np.zeros((n, n), dtype=np.int64)
        fanouts = []
        for i, (heading, row) in enumerate(zip(self.hol_pids, self.behind)):
            for pid in heading:
                for j in iter_bits(p_hol[pid]):
                    hol_ts[i, j] = p_ts[pid]
                    occupancy[i, j] = 1
            for j, dq in row.items():
                occupancy[i, j] += len(dq)
            # An input's live pids; its timestamps are distinct, so
            # sorting by them is allocation order.
            live_pids = sorted(set(heading).union(*row.values()), key=p_ts.__getitem__)
            fanouts.append(
                np.array([p_fanout[pid] for pid in live_pids], dtype=np.int64)
            )
        return {
            "hol_ts": hol_ts,
            "occupancy": occupancy,
            "live": np.array(self.live, dtype=np.int64),
            "fanout_counters": fanouts,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SwitchState(N={self.num_ports}, live={sum(self.live)}, "
            f"backlog={self.backlog})"
        )
