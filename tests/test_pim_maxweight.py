"""Unit tests for the PIM and MaxWeight unicast schedulers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.schedulers.base import UnicastVOQView
from repro.schedulers.maxweight import MaxWeightScheduler
from repro.schedulers.pim import PIMScheduler


def _view(occupancy, hol_arrival=None, slot: int = 10) -> UnicastVOQView:
    occ = np.asarray(occupancy, dtype=np.int64)
    if hol_arrival is None:
        hol = np.where(occ > 0, 0, -1).astype(np.int64)
    else:
        hol = np.asarray(hol_arrival, dtype=np.int64)
    return UnicastVOQView(occupancy=occ, hol_arrival=hol, current_slot=slot)


class TestPIM:
    def test_empty(self):
        d = PIMScheduler(2, rng=0).schedule(_view([[0, 0], [0, 0]]))
        assert not d

    def test_full_backlog_converges_to_full_matching(self):
        sched = PIMScheduler(3, rng=0)
        d = sched.schedule(_view([[1, 1, 1]] * 3))
        assert len(d.grants) == 3
        d.validate(3, 3)

    def test_randomness_varies_matchings(self):
        sched = PIMScheduler(4, rng=0)
        outcomes = set()
        for _ in range(20):
            d = sched.schedule(_view([[1, 1, 1, 1]] * 4))
            outcomes.add(tuple(sorted((i, g.output_ports[0]) for i, g in d.grants.items())))
        assert len(outcomes) > 1  # PIM does not repeat one fixed matching

    def test_iteration_cap(self):
        sched = PIMScheduler(8, rng=0, max_iterations=1)
        d = sched.schedule(_view([[1] * 8] * 8))
        assert d.rounds == 1

    def test_bad_args(self):
        with pytest.raises(ConfigurationError):
            PIMScheduler(0)
        with pytest.raises(ConfigurationError):
            PIMScheduler(2, max_iterations=0)
        with pytest.raises(ConfigurationError):
            PIMScheduler(2).schedule(_view([[1]]))


class TestMaxWeightLQF:
    def test_picks_heavier_queue(self):
        sched = MaxWeightScheduler(2, weight="lqf")
        # input0 has 5 cells for output0; input1 has 1 for output0 and 9
        # for output1: optimal total = 5 + 9.
        d = sched.schedule(_view([[5, 0], [1, 9]]))
        assert d.grants[0].output_ports == (0,)
        assert d.grants[1].output_ports == (1,)

    def test_never_grants_empty_voq(self):
        sched = MaxWeightScheduler(3, weight="lqf")
        d = sched.schedule(_view([[1, 0, 0], [0, 0, 0], [0, 0, 0]]))
        assert len(d.grants) == 1
        assert d.grants[0].output_ports == (0,)

    def test_achieves_max_weight(self):
        rng = np.random.default_rng(5)
        sched = MaxWeightScheduler(4, weight="lqf")
        occ = rng.integers(0, 10, size=(4, 4))
        d = sched.schedule(_view(occ))
        got = sum(occ[i, g.output_ports[0]] for i, g in d.grants.items())
        # Brute force over all permutations.
        from itertools import permutations

        best = max(
            sum(occ[i, p[i]] for i in range(4)) for p in permutations(range(4))
        )
        assert got == best

    def test_bad_weight_name(self):
        with pytest.raises(ConfigurationError):
            MaxWeightScheduler(4, weight="length")


class TestMaxWeightOCF:
    def test_prefers_older_hol(self):
        sched = MaxWeightScheduler(2, weight="ocf")
        # Both inputs want output 0 only; input1's HOL is older.
        occ = [[1, 0], [1, 0]]
        hol = [[8, -1], [2, -1]]
        d = sched.schedule(_view(occ, hol, slot=10))
        assert 1 in d.grants and 0 not in d.grants

    def test_empty(self):
        d = MaxWeightScheduler(2, weight="ocf").schedule(_view([[0, 0], [0, 0]]))
        assert not d


class TestUnicastVOQView:
    def test_num_ports(self):
        assert _view([[0, 0], [0, 0]]).num_ports == 2
