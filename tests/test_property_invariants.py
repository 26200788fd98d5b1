"""Property-based tests: random traces through every switch architecture
must preserve the global invariants of DESIGN.md §6.

Strategy: hypothesis draws a small random trace (N in 2..5, a handful of
slots, random fanout sets) and hands it to
:func:`repro.verify.exhaustive.check_trace` — the per-trace runner behind
``repro-sim verify``. It drives the switch through the engine under the
hard-fail sanitizer until drained, so the invariants checked here are
the sanitizer's catalogue (docs/sanitizers.md): conservation, crossbar
matching validity, per-(input, output) FIFO order, the switch's own
``check_invariants()`` every slot, causality (the stats collector's
refusal), plus eventual delivery of every cell.
"""

from __future__ import annotations

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packet import Packet
from repro.schedulers.registry import make_switch
from repro.traffic.trace import TraceTraffic
from repro.verify.exhaustive import VerificationReport, check_trace

ALGOS = (
    "fifoms",
    "greedy-mcast",
    "islip",
    "pim",
    "maxweight-lqf",
    "tatra",
    "siq-fifo",
    "oqfifo",
    "eslip",
    "cicq",
)


@st.composite
def traces(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    horizon = draw(st.integers(min_value=1, max_value=10))
    trace = []
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
                trace.append((slot, i, tuple(sorted(dests))))
    return n, horizon, tuple(trace)


def _assert_clean(algorithm: str, n: int, horizon: int, trace) -> None:
    report = VerificationReport(algorithm=algorithm, num_ports=n, horizon=horizon)
    check_trace(report, trace)
    assert report.ok, report.violations
    # Everything delivered: no starvation.
    assert report.cells_delivered == sum(len(dests) for _, _, dests in trace)


@settings(max_examples=25, deadline=None)
@given(traces())
def test_fifoms_invariants(trace):
    _assert_clean("fifoms", *trace)


@settings(max_examples=12, deadline=None)
@given(traces(), st.sampled_from(ALGOS))
def test_all_architectures_conserve_and_drain(trace, algorithm):
    _assert_clean(algorithm, *trace)


@settings(max_examples=12, deadline=None)
@given(traces())
def test_oqfifo_work_conservation(trace):
    """OQFIFO serves an output in every slot in which it has backlog."""
    n, horizon, trace = trace
    packets = [
        Packet(input_port=i, destinations=dests, arrival_slot=slot)
        for slot, i, dests in trace
    ]
    switch = make_switch("oqfifo", n)
    traffic = TraceTraffic(n, packets)
    offered = sum(p.fanout for p in packets)
    for slot in range(horizon + offered + 2):
        arrivals = traffic.next_slot() if slot < horizon else [None] * n
        before = switch.queue_sizes()
        arriving_to = defaultdict(int)
        for p in arrivals:
            if p is not None:
                for j in p.destinations:
                    arriving_to[j] += 1
        result = switch.step(arrivals, slot)
        served_outputs = {d.output_port for d in result.deliveries}
        for j in range(n):
            if before[j] > 0 or arriving_to[j] > 0:
                assert j in served_outputs
