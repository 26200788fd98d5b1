"""Property-based exact-parity tests on hypothesis-drawn traces: object
vs vectorized FIFOMS kernel, and the two transfer bodies (plain VOQ
switch, speedup-1 CIOQ) over the one unicast VOQ bank."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fifoms import FIFOMSScheduler, TieBreak
from repro.kernel.equivalence import RecordingSwitch, compare_summaries
from repro.packet import Packet
from repro.schedulers.registry import make_switch
from repro.schedulers.islip import ISLIPScheduler
from repro.schedulers.pim import PIMScheduler
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.switch.cioq import CIOQSwitch
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
        MulticastVOQSwitch(
            n,
            FIFOMSScheduler(n, tie_break=TieBreak.LOWEST_INPUT),
            backend="object",
        ),
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
    # Speedup 1 never lets an output FIFO hold a cell past its slot, so
    # CIOQ's phase loop must deliver, slot for slot, what the template
    # method's _transfer delivers — for a mask reader and a matrix reader.
    for make_scheduler in (ISLIPScheduler, lambda n: PIMScheduler(n, rng=11)):
        runs = []
        for switch in (
            UnicastVOQSwitch(n, make_scheduler(n)),
            CIOQSwitch(n, 1, make_scheduler(n)),
        ):
            recorder = RecordingSwitch(switch)
            summary = SimulationEngine(
                recorder, TraceTraffic(n, packets), cfg, algorithm_name="islip"
            ).run()
            switch.check_invariants()
            runs.append((summary, [digest[-2] for digest in recorder.digests]))
        (ref, ref_deliveries), (other, other_deliveries) = runs
        assert other_deliveries == ref_deliveries
        assert compare_summaries(ref, other) == []


# --------------------------------------------------------------------- #
# FIFOMS array entry point vs the object reference, decision by decision
# --------------------------------------------------------------------- #
def _random_queue_state(n: int, rnd, slots: int):
    """Both kernel backends after one script of random admits and random
    (valid) services: any HOL subset of any one packet per input — more
    states than FIFOMS itself reaches, including old packets waiting
    behind busy outputs while younger ones hold other VOQ heads."""
    from repro.core.matching import ScheduleDecision
    from repro.kernel import make_backend
    from repro.switch.base import SlotResult

    obj = make_backend("object", n)
    vec = make_backend("vectorized", n)
    state = vec.state
    for slot in range(slots):
        for i in range(n):
            if rnd.random() < 0.7:
                fanout = min(n, rnd.choice((1, 1, 2, 3, n)))
                pkt = Packet(i, tuple(rnd.sample(range(n), fanout)), slot)
                assert obj.admit(pkt, slot) and vec.admit(pkt, slot)
        served = ScheduleDecision()
        for i in range(n):
            heading = state.hol_pids[i]
            if heading and rnd.random() < 0.6:
                hol = state.p_hol[rnd.choice(heading)]
                outs = [j for j in range(n) if hol >> j & 1]
                served.add(i, tuple(rnd.sample(outs, rnd.randint(1, len(outs)))))
        for backend in (obj, vec):
            backend.commit(served, SlotResult(slot=slot), slot)
    return obj, vec


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 5, 16, 70]),
    tie_break=st.sampled_from(list(TieBreak)),
    max_iterations=st.sampled_from([None, 1, 2]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    mask_inputs=st.booleans(),
    mask_outputs=st.booleans(),
)
def test_schedule_state_matches_schedule_on_random_queue_states(
    n, tie_break, max_iterations, seed, mask_inputs, mask_outputs
):
    """``schedule_state`` against the object ``schedule``: equal grants
    (and grant order), rounds, round_grants, written-back masks and final
    RNG state, over three schedule→commit steps from a random state."""
    import random

    from repro.switch.base import SlotResult

    rnd = random.Random(seed)
    slots = rnd.randint(1, 6)
    obj, vec = _random_queue_state(n, rnd, slots)
    ref = FIFOMSScheduler(
        n, tie_break=tie_break, max_iterations=max_iterations, rng=seed
    )
    fast = FIFOMSScheduler(
        n, tie_break=tie_break, max_iterations=max_iterations, rng=seed
    )
    ref._grant_pointers = [rnd.randrange(n) for _ in range(n)]
    fast._grant_pointers = list(ref._grant_pointers)
    for slot in range(slots, slots + 3):
        in_mask = [rnd.random() < 0.7 for _ in range(n)] if mask_inputs else None
        out_mask = [rnd.random() < 0.7 for _ in range(n)] if mask_outputs else None
        ref_in, ref_out = (m and list(m) for m in (in_mask, out_mask))
        got_in, got_out = (m and list(m) for m in (in_mask, out_mask))
        want = obj.schedule(ref, input_free=ref_in, output_free=ref_out)
        got = vec.schedule(fast, input_free=got_in, output_free=got_out)
        assert list(got.grants.items()) == list(want.grants.items())
        assert got.rounds == want.rounds
        assert got.round_grants == want.round_grants
        assert got.requests_made == want.requests_made
        assert (got_in, got_out) == (ref_in, ref_out)
        assert fast._grant_pointers == ref._grant_pointers
        assert (
            fast._rng.bit_generator.state == ref._rng.bit_generator.state
        )
        got.validate(n, n)
        for backend, decision in ((obj, want), (vec, got)):
            backend.commit(decision, SlotResult(slot=slot), slot)
        vec.check_invariants()
        for i in range(n):
            if rnd.random() < 0.5:
                pkt = Packet(i, tuple(rnd.sample(range(n), rnd.randint(1, n))), slot)
                obj.admit(pkt, slot)
                vec.admit(pkt, slot)
