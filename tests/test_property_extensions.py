"""Property-based tests for the buffered extension architectures (CICQ,
CIOQ): conservation and drain on random traces."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packet import Packet
from repro.schedulers.registry import make_switch


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
