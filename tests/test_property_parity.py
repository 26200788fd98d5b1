"""Property-based parity on hypothesis-drawn traces: production FIFOMS
beside the reference model in both fanout modes, and the two transfer
bodies (plain VOQ switch, speedup-1 CIOQ) over the one unicast VOQ bank."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fifoms import FIFOMSScheduler, TieBreak
from repro.packet import Packet
from repro.schedulers.islip import ISLIPScheduler
from repro.schedulers.pim import PIMScheduler
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.switch.cioq import CIOQSwitch
from repro.switch.voq_unicast import UnicastVOQSwitch
from repro.traffic.trace import TraceTraffic
from repro.verify.exhaustive import VerificationReport, check_trace
from repro.verify.grid import record_digests

from conftest import traces


@settings(max_examples=30, deadline=None)
@given(traces(), st.booleans())
def test_fast_fifoms_bit_identical_on_any_trace(trace, fanout_splitting):
    """One run per trace with the reference shadow in its hard-fail
    suite (and the deep pass every slot): every slot's decision equal
    to the reference's, and the trace drained."""
    n, horizon, arrivals = trace
    report = VerificationReport("fifoms", n, horizon)
    check_trace(
        report, arrivals, tie_break="lowest_input",
        fanout_splitting=fanout_splitting,
    )
    assert report.ok, report.violations


@settings(max_examples=30, deadline=None)
@given(traces())
def test_fast_islip_bit_identical_on_any_trace(trace):
    n, horizon, arrivals = trace
    packets = [Packet(i, dests, slot) for slot, i, dests in arrivals]
    cells = sum(p.fanout for p in packets)
    cfg = SimulationConfig(
        num_slots=horizon + cells + 2, warmup_fraction=0.0, stability_window=0
    )
    # Speedup 1 never lets an output FIFO hold a cell past its slot, so
    # CIOQ's phase loop must deliver, slot for slot, what the template
    # method's _transfer delivers — for a mask reader and a matrix reader.
    # Only the per-round grant counts differ: the phase loop reports none.
    for make_scheduler in (ISLIPScheduler, lambda n: PIMScheduler(n, rng=11)):
        runs = []
        for switch in (
            UnicastVOQSwitch(n, make_scheduler(n)),
            CIOQSwitch(n, 1, make_scheduler(n)),
        ):
            digests = record_digests(switch)
            summary = SimulationEngine(
                switch, TraceTraffic(n, packets), cfg, algorithm_name="islip"
            ).run()
            switch.check_invariants()
            # to_json renders NaN (an empty run's averages) as null.
            runs.append(([d[:3] + d[4:] for d in digests], summary.to_json()))
        assert runs[0] == runs[1]


# --------------------------------------------------------------------- #
# FIFOMS array entry point vs the reference model, decision by decision
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
    fanout_splitting=st.booleans(),
)
def test_schedule_state_matches_schedule_on_random_queue_states(
    n, tie_break, max_iterations, seed, mask_inputs, mask_outputs,
    fanout_splitting,
):
    """``schedule_state`` against the reference model (the ``object``
    kernel), in both fanout modes: equal grants (and grant order),
    rounds, round_grants, written-back masks, round-robin pointers and
    final RNG state, over three schedule→commit steps from a random
    state."""
    import random

    from repro.switch.base import SlotResult

    rnd = random.Random(seed)
    slots = rnd.randint(1, 6)
    obj, vec = _random_queue_state(n, rnd, slots)
    ref, fast = (
        FIFOMSScheduler(
            n,
            tie_break=tie_break,
            max_iterations=max_iterations,
            fanout_splitting=fanout_splitting,
            rng=seed,
        )
        for _ in range(2)
    )
    obj.lane.pointers = [rnd.randrange(n) for _ in range(n)]
    fast._grant_pointers = list(obj.lane.pointers)
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
        assert fast._grant_pointers == obj.lane.pointers
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
