"""The grant seam on bitmasks: ``ScheduleDecision.validate`` and
``MulticastCrossbar.configure`` against the per-output walk they replaced,
and ``DelayTracker``'s one delivery loop fed per delivery and per slot.

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
from repro.packet import Delivery, Packet
from repro.stats.delay import DelayTracker

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
def delivery_streams(draw):
    """Packets with their per-destination service slots, as a stream of
    slots (each a list of deliveries), plus a warmup boundary."""
    packets, stream = [], {}
    for k in range(draw(st.integers(1, 12))):
        arrival = draw(st.integers(0, 6))
        dests = draw(st.sets(st.integers(0, 7), min_size=1, max_size=4))
        packet = Packet(k % 8, tuple(dests), arrival)
        packets.append(packet)
        for j in dests:
            served = arrival + draw(st.integers(0, 5))
            stream.setdefault(served, []).append(Delivery(packet, j, served))
    slots = [draw(st.permutations(stream[s])) for s in sorted(stream)]
    return packets, slots, draw(st.integers(0, 8))


def _tracker(packets, warmup, extra=None, extra_fanout=1):
    tracker = DelayTracker(warmup)
    for p in packets:
        tracker.on_arrival(p.packet_id, p.arrival_slot, p.fanout)
    if extra is not None:
        tracker.on_arrival(extra.packet_id, extra.arrival_slot, extra_fanout)
    return tracker


def _feed(tracker, slots, per_slot):
    for deliveries in slots:
        if per_slot:
            tracker.on_deliveries(deliveries)
        else:
            for d in deliveries:
                tracker.on_delivery(d)
    return tracker


@settings(max_examples=150, deadline=None)
@given(delivery_streams())
def test_delay_tracker_batch_equals_per_delivery(case):
    packets, slots, warmup = case
    one = _feed(_tracker(packets, warmup), slots, per_slot=False)
    batched = _feed(_tracker(packets, warmup), slots, per_slot=True)
    assert _accumulators(one) == _accumulators(batched)
    # And both equal the definitions, computed from the stream directly.
    counted = [d for s in slots for d in s if d.packet.arrival_slot >= warmup]
    last = {}
    for d in counted:
        last[d.packet] = max(last.get(d.packet, 0), d.delay)
    assert _accumulators(one)[:8] == (
        sum(map(len, slots)),
        len(counted),
        sum(d.delay for d in counted),
        sum(d.delay ** 2 for d in counted),
        max((d.delay for d in counted), default=0),
        len(last),
        sum(last.values()),
        max(last.values(), default=0),
    )


@pytest.mark.parametrize("case", ["unregistered", "before arrival", "over-delivered"])
@settings(max_examples=60, deadline=None)
@given(stream=delivery_streams(), data=st.data())
def test_delay_tracker_refuses_alike(case, stream, data):
    packets, slots, warmup = stream
    at = data.draw(st.integers(0, len(slots) - 1))
    service = slots[at][0].service_slot
    bad = Packet(0, (0,), service + 1 if case == "before arrival" else service)
    slots = [list(s) for s in slots]
    slots[at].insert(data.draw(st.integers(0, len(slots[at]))), Delivery(bad, 0, service))
    extra = None if case == "unregistered" else bad
    extra_fanout = 0 if case == "over-delivered" else 1
    outcomes = []
    for per_slot in (False, True):
        tracker = _tracker(packets, warmup, extra, extra_fanout)
        with pytest.raises(SimulationError, match=case) as exc:
            _feed(tracker, slots, per_slot)
        outcomes.append((str(exc.value), _accumulators(tracker)))
    assert outcomes[0] == outcomes[1]
