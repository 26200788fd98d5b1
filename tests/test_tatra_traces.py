"""TATRA on pinned traces: the object-only pairing's determinism check
through ``run_pair`` and the HOL-blocking behaviour it must show."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.equivalence import compare_summaries, run_pair
from repro.packet import Packet
from repro.schedulers.registry import make_switch
from repro.schedulers.tatra import TATRAScheduler
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.switch.single_queue import SingleInputQueueSwitch
from repro.traffic.bernoulli import BernoulliMulticastTraffic
from repro.traffic.trace import TraceTraffic
from repro.traffic.uniform import UniformFanoutTraffic

from conftest import make_packet


class TestExactParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bernoulli_multicast(self, seed):
        tr = BernoulliMulticastTraffic(8, p=0.3, b=0.3, rng=seed)
        ref, fast = run_pair("tatra", tr, 2500)
        assert compare_summaries(ref, fast) == []

    def test_unicast(self):
        tr = UniformFanoutTraffic(8, p=0.5, max_fanout=1, rng=4)
        ref, fast = run_pair("tatra", tr, 2500)
        assert compare_summaries(ref, fast) == []

    def test_near_saturation(self):
        # Past TATRA's stability point: the unstable flag and the early
        # stop must also agree exactly.
        tr = UniformFanoutTraffic(8, p=0.8, max_fanout=1, rng=5)
        ref, fast = run_pair("tatra", tr, 4000)
        assert ref.unstable == fast.unstable
        assert compare_summaries(ref, fast) == []


@st.composite
def traces(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    horizon = draw(st.integers(min_value=1, max_value=12))
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
                packets.append(Packet(i, tuple(dests), slot))
    return n, horizon, packets


@settings(max_examples=30, deadline=None)
@given(traces())
def test_fast_tatra_bit_identical_on_any_trace(trace):
    """Property form: the registry pairing equals the hand-built
    reference stack on arbitrary hypothesis-drawn traces (and both pass
    the engine's conservation audit on them)."""
    n, horizon, packets = trace
    cells = sum(p.fanout for p in packets)
    cfg = SimulationConfig(
        num_slots=horizon + cells + 2, warmup_fraction=0.0, stability_window=0
    )
    ref = SimulationEngine(
        SingleInputQueueSwitch(n, TATRAScheduler(n)),
        TraceTraffic(n, packets),
        cfg,
        algorithm_name="tatra",
    ).run()
    registry = SimulationEngine(
        make_switch("tatra", n), TraceTraffic(n, packets), cfg,
        algorithm_name="tatra",
    ).run()
    assert compare_summaries(ref, registry) == []


class TestFastTATRABehaviour:
    def test_hol_blocking_visible(self):
        """The engine preserves the architecture's defining pathology."""
        pkts = [
            make_packet(0, (0,), 0),
            make_packet(1, (0,), 0),
            make_packet(0, (2,), 1),
            make_packet(1, (3,), 1),
        ]
        cfg = SimulationConfig(
            num_slots=6, warmup_fraction=0.0, stability_window=0
        )
        s = SimulationEngine(
            make_switch("tatra", 4), TraceTraffic(4, pkts), cfg,
            algorithm_name="tatra",
        ).run()
        assert s.cells_delivered == 4
        # The loser's second packet waits a slot: mean input delay > 1.25.
        assert s.average_input_delay > 1.25
