"""Property-based tests for the extension subsystems (QoS, CICQ, CIOQ):
conservation, drain and class integrity on random traces."""

from __future__ import annotations

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packet import Packet
from repro.qos.switch import PriorityMulticastVOQSwitch
from repro.schedulers.registry import make_switch
from repro.core.fifoms import TieBreak


@st.composite
def priority_traces(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    classes = draw(st.integers(min_value=1, max_value=3))
    horizon = draw(st.integers(min_value=1, max_value=8))
    packets = []
    for slot in range(horizon):
        for i in range(n):
            if draw(st.booleans()):
                dests = draw(
                    st.sets(
                        st.integers(min_value=0, max_value=n - 1),
                        min_size=1,
                        max_size=n,
                    )
                )
                packets.append(
                    Packet(
                        input_port=i,
                        destinations=tuple(dests),
                        arrival_slot=slot,
                        priority=draw(st.integers(min_value=0, max_value=classes - 1)),
                    )
                )
    return n, classes, horizon, packets


@settings(max_examples=25, deadline=None)
@given(priority_traces())
def test_priority_switch_conserves_and_drains(trace):
    n, classes, horizon, packets = trace
    sw = PriorityMulticastVOQSwitch(n, classes, tie_break=TieBreak.LOWEST_INPUT)
    offered = sum(p.fanout for p in packets)
    by_slot = defaultdict(list)
    for p in packets:
        by_slot[p.arrival_slot].append(p)
    delivered = 0
    per_output_slot = set()
    per_input_slot_packets = defaultdict(set)
    for slot in range(horizon + offered + 2):
        lanes = [None] * n
        for p in by_slot.get(slot, ()):
            lanes[p.input_port] = p
        result = sw.step(lanes, slot)
        delivered += result.cells_delivered
        for d in result.deliveries:
            key = (d.output_port, d.service_slot)
            assert key not in per_output_slot  # crossbar safety across classes
            per_output_slot.add(key)
            per_input_slot_packets[(d.packet.input_port, d.service_slot)].add(
                d.packet.packet_id
            )
        sw.check_invariants()
        arrived = sum(p.fanout for p in packets if p.arrival_slot <= slot)
        assert delivered + sw.total_backlog() == arrived
    assert sw.total_backlog() == 0
    # One data cell per input per slot holds ACROSS classes too.
    assert all(len(v) == 1 for v in per_input_slot_packets.values())


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from(["cicq", "cioq-islip"]),
    st.integers(min_value=0, max_value=1000),
)
def test_buffered_architectures_conserve_on_random_traces(algorithm, seed):
    import numpy as np

    n = 3
    rng = np.random.default_rng(seed)
    sw = make_switch(algorithm, n, rng=0)
    offered = delivered = 0
    horizon = 12
    packets_by_slot = []
    for slot in range(horizon):
        lanes = [None] * n
        for i in range(n):
            if rng.random() < 0.5:
                k = int(rng.integers(1, n + 1))
                dests = tuple(int(x) for x in rng.choice(n, size=k, replace=False))
                lanes[i] = Packet(i, dests, slot)
                offered += len(set(dests))
        packets_by_slot.append(lanes)
    for slot in range(horizon + offered + 4):
        lanes = packets_by_slot[slot] if slot < horizon else [None] * n
        delivered += sw.step(lanes, slot).cells_delivered
        sw.check_invariants()
    assert delivered + sw.total_backlog() == offered
    assert sw.total_backlog() == 0
