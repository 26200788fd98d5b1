"""Property-based exact-parity tests: object vs vectorized backend on
hypothesis-drawn traces (deterministic arbitration)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fifoms import FIFOMSScheduler, TieBreak
from repro.kernel.equivalence import compare_summaries
from repro.packet import Packet
from repro.schedulers.registry import make_switch
from repro.schedulers.islip import ISLIPScheduler
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.switch.voq_multicast import MulticastVOQSwitch
from repro.switch.voq_unicast import UnicastVOQSwitch
from repro.traffic.trace import TraceTraffic


@st.composite
def traces(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    horizon = draw(st.integers(min_value=1, max_value=15))
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


def _cfg(horizon: int, cells: int) -> SimulationConfig:
    return SimulationConfig(
        num_slots=horizon + cells + 2,
        warmup_fraction=0.0,
        stability_window=0,
    )


@settings(max_examples=30, deadline=None)
@given(traces())
def test_fast_fifoms_bit_identical_on_any_trace(trace):
    n, horizon, packets = trace
    cells = sum(p.fanout for p in packets)
    cfg = _cfg(horizon, cells)
    ref = SimulationEngine(
        MulticastVOQSwitch(n, FIFOMSScheduler(n, tie_break=TieBreak.LOWEST_INPUT)),
        TraceTraffic(n, packets),
        cfg,
        algorithm_name="fifoms",
    ).run()
    fast = SimulationEngine(
        make_switch(
            "fifoms", n, tie_break="lowest_input", backend="vectorized"
        ),
        TraceTraffic(n, packets),
        cfg,
        algorithm_name="fifoms",
    ).run()
    assert compare_summaries(ref, fast) == []


@settings(max_examples=30, deadline=None)
@given(traces())
def test_fast_islip_bit_identical_on_any_trace(trace):
    n, horizon, packets = trace
    cells = sum(p.fanout for p in packets)
    cfg = _cfg(horizon, cells)
    ref = SimulationEngine(
        UnicastVOQSwitch(n, ISLIPScheduler(n)),
        TraceTraffic(n, packets),
        cfg,
        algorithm_name="islip",
    ).run()
    fast = SimulationEngine(
        make_switch("islip", n, backend="vectorized"),
        TraceTraffic(n, packets),
        cfg,
        algorithm_name="islip",
    ).run()
    assert compare_summaries(ref, fast) == []
