"""The grant seam on bitmasks: ``ScheduleDecision.validate`` and
``MulticastCrossbar.configure`` against the per-output walk they replaced,
and ``DelayTracker.on_rows`` against a per-copy reference of the delay
statistics that shares no code with ``repro.stats``.

The scalar reference keeps a dict from output to input and walks every
grant output by output, raising what the tuple-based code raised; the
mask code must agree with it on forged decisions — out-of-range inputs
and outputs, empty masks, clashing outputs, failed crosspoints — from
one port to past a machine word.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import ScheduleDecision
from repro.errors import (
    ConfigurationError,
    FabricConflictError,
    SchedulingError,
    SimulationError,
)
from repro.fabric.crossbar import MulticastCrossbar
from repro.packet import Packet
from repro.stats.delay import DelayTracker
from repro.switch.base import SlotResult

SIZES = (1, 2, 5, 16, 70, 256)


def reference_walk(masks, n, failed=None):
    """``validate`` (``failed is None``) or ``configure`` (``failed`` =
    the failed crosspoints), one output at a time: ``(exception type,
    message prefix)``, or ``(None, (cells, multicast transfers))``."""
    xbar = failed is not None
    driver = {}  # output -> input
    cells = multicast = 0
    for i, mask in masks.items():
        if not 0 <= i < n:
            if xbar:
                return ConfigurationError, f"input_port must be in [0, {n}), got {i}"
            return SchedulingError, f"input index {i} out of range"
        outs = [j for j in range(mask.bit_length()) if mask >> j & 1]
        if not outs and not xbar:
            return SchedulingError, f"empty grant set for input {i}"
        for j in outs:
            if j >= n:
                if xbar:
                    return ConfigurationError, f"output_port must be in [0, {n}), got {j}"
                return SchedulingError, f"output index {j} out of range"
            if xbar and (i, j) in failed:
                return FabricConflictError, f"crosspoint ({i}, {j}) is failed"
            if j in driver:
                if xbar:
                    return FabricConflictError, f"output {j} claimed by inputs {driver[j]} and {i}"
                return SchedulingError, f"output {j} granted to inputs {driver[j]} and {i} in the same slot"
            driver[j] = i
        cells += len(outs)
        multicast += len(outs) > 1
    return None, (cells, multicast)


@st.composite
def forged(draw, n):
    """A forged ``{input: mask}`` dict and a set of failed crosspoints.

    Outputs come partly from a small hot set, so clashes are common at
    every N; indices reach one past the port range on both sides."""
    hot = sorted({0, n // 2, n - 1})
    output = st.one_of(st.integers(0, n + 1), st.sampled_from(hot))
    inputs = draw(st.lists(st.integers(-1, n), max_size=6, unique=True))
    masks = {}
    for i in inputs:
        outs = draw(st.lists(output, max_size=4))
        masks[i] = sum(1 << j for j in set(outs))
    in_range = [(i, j) for i, m in masks.items() if 0 <= i < n
                for j in range(n) if m >> j & 1]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    failed = draw(st.sets(st.one_of(st.sampled_from(in_range), pairs)
                          if in_range else pairs, max_size=3))
    return masks, frozenset(failed)


def _outcome(call):
    try:
        return None, call()
    except (SchedulingError, ConfigurationError, FabricConflictError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_validate_and_configure_match_scalar_walk(n, data):
    masks, failed = data.draw(forged(n))
    decision = ScheduleDecision(masks=dict(masks))

    kind, detail = reference_walk(masks, n)
    got_kind, message = _outcome(lambda: decision.validate(n, n))
    assert got_kind is kind, (message, detail)
    if kind is not None:
        assert message.startswith(detail), (message, detail)

    xbar = MulticastCrossbar(n)
    xbar.set_crosspoint_faults(failed)
    kind, detail = reference_walk(masks, n, failed)

    def configure():
        xbar.configure(decision)
        return xbar.cells_transferred, xbar.multicast_transfers

    got_kind, got = _outcome(configure)
    assert got_kind is kind, (got, detail)
    if kind is None:
        assert got == detail
    else:
        assert got.startswith(detail), (got, detail)


# ---------------------------------------------------------------------- #
def reference_delays(packets, services, warmup):
    """The delay statistics by definition, one copy at a time.

    ``packets`` is ``(pid, arrival, fanout)`` per packet; ``services``
    maps each slot to the ``(pid, output)`` copies served in it. A copy
    counts iff its packet arrived at or after ``warmup``; a packet's delay
    is that of its last copy. Returns ``(copies served, counted copies,
    delay sum, squared sum, max, completed packets, packet delay sum,
    max)``."""
    arrival = {pid: a for pid, a, _ in packets}
    left = {pid: f for pid, _, f in packets}
    served = 0
    copies, finished = [], []
    for slot in sorted(services):
        for pid, _ in services[slot]:
            served += 1
            left[pid] -= 1
            if arrival[pid] < warmup:
                continue
            d = slot - arrival[pid] + 1
            copies.append(d)
            if left[pid] == 0:
                finished.append(d)
    return (
        served,
        len(copies),
        sum(copies),
        sum(d * d for d in copies),
        max(copies, default=0),
        len(finished),
        sum(finished),
        max(finished, default=0),
    )


def _accumulators(tracker):
    return (
        tracker.total_deliveries,
        tracker.delivery_count,
        tracker.delivery_delay_sum,
        tracker.delivery_delay_sq_sum,
        tracker.max_delivery_delay,
        tracker.packet_count,
        tracker.packet_delay_sum,
        tracker.max_packet_delay,
        tracker.incomplete_packets,
        tracker.pending_cells(),
    )


@st.composite
def row_streams(draw, n=8):
    """Packets on an ``n``-output switch, each destination served in some
    slot after arrival or never, as ``{slot: [(packet, mask), ...]}`` —
    one row per packet per slot, rows in any order — plus a warmup
    boundary equal to one of the arrival slots."""
    packets, served = [], {}
    outputs = st.one_of(st.integers(0, n - 1), st.sampled_from(sorted({0, n - 1})))
    for k in range(draw(st.integers(1, 12))):
        arrival = draw(st.integers(0, 6))
        packet = Packet(k % n, tuple(draw(st.sets(outputs, min_size=1, max_size=4))), arrival)
        packets.append(packet)
        for j in packet.destinations:
            wait = draw(st.one_of(st.none(), st.integers(0, 3)))
            if wait is not None:
                row = served.setdefault(arrival + wait, {})
                row[packet] = row.get(packet, 0) | 1 << j
    rows = {s: draw(st.permutations(list(served[s].items()))) for s in sorted(served)}
    return packets, rows, draw(st.sampled_from([p.arrival_slot for p in packets]))


def _tracker(packets, warmup, extra=None, extra_fanout=1):
    tracker = DelayTracker(warmup)
    for p in packets:
        tracker.on_arrival(p.packet_id, p.arrival_slot, p.fanout)
    if extra is not None:
        tracker.on_arrival(extra.packet_id, extra.arrival_slot, extra_fanout)
    return tracker


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_delay_tracker_matches_row_oracle(n, data):
    packets, rows, warmup = data.draw(row_streams(n))
    tracker = _tracker(packets, warmup)
    for slot, slot_rows in rows.items():
        tracker.on_rows(slot_rows, slot)
    services = {
        slot: [(p.packet_id, j) for p, mask in slot_rows for j in range(n) if mask >> j & 1]
        for slot, slot_rows in rows.items()
    }
    oracle = reference_delays(
        [(p.packet_id, p.arrival_slot, p.fanout) for p in packets], services, warmup
    )
    assert _accumulators(tracker)[:8] == oracle
    left = sum(p.fanout for p in packets) - oracle[0]
    assert tracker.pending_cells() == left


@pytest.mark.parametrize("case", ["unregistered", "before arrival", "over-delivered"])
@settings(max_examples=60, deadline=None)
@given(stream=row_streams(), data=st.data())
def test_delay_tracker_refuses_alike(case, stream, data):
    """A bad row is refused fed as rows and fed as the per-copy view,
    with one message and one tracker state."""
    packets, rows, warmup = stream
    if not rows:
        rows = {0: []}
    at = data.draw(st.sampled_from(sorted(rows)))
    bad = Packet(0, (0,), at + 1 if case == "before arrival" else at)
    rows = {s: list(r) for s, r in rows.items()}
    rows[at].insert(data.draw(st.integers(0, len(rows[at]))), (bad, 1))
    extra = None if case == "unregistered" else bad
    extra_fanout = 0 if case == "over-delivered" else 1
    outcomes = []
    for per_copy in (False, True):
        tracker = _tracker(packets, warmup, extra, extra_fanout)
        with pytest.raises(SimulationError, match=case) as exc:
            for slot, slot_rows in rows.items():
                if per_copy:
                    for d in SlotResult(slot, slot_rows).deliveries:
                        tracker.on_delivery(d)
                else:
                    tracker.on_rows(slot_rows, slot)
        outcomes.append((str(exc.value), _accumulators(tracker)))
    assert outcomes[0] == outcomes[1]


def test_delay_tracker_refuses_an_over_delivering_row():
    packet = Packet(0, (0, 1), 0)
    tracker = _tracker([packet], 0)
    with pytest.raises(SimulationError, match="over-delivered"):
        tracker.on_rows([(packet, 0b111)], 0)
