"""Unit tests for the iSLIP scheduler (McKeown semantics)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError
from repro.schedulers.base import UnicastVOQView
from repro.schedulers.islip import ISLIPScheduler


def _view(occupancy, slot: int = 0) -> UnicastVOQView:
    occ = np.asarray(occupancy, dtype=np.int64)
    return UnicastVOQView(occupancy=occ, current_slot=slot)


class TestBasics:
    def test_empty_view(self):
        d = ISLIPScheduler(2).schedule(_view([[0, 0], [0, 0]]))
        assert not d and d.rounds == 0 and not d.requests_made

    def test_single_cell(self):
        d = ISLIPScheduler(2).schedule(_view([[0, 1], [0, 0]]))
        assert d.grants[0].output_ports == (1,)
        assert d.rounds == 1

    def test_unicast_grants_only(self):
        d = ISLIPScheduler(3).schedule(_view([[1, 1, 1], [1, 1, 1], [1, 1, 1]]))
        assert all(g.fanout == 1 for g in d.grants.values())
        d.validate(3, 3)

    def test_view_size_mismatch(self):
        with pytest.raises(ConfigurationError):
            ISLIPScheduler(3).schedule(_view([[1]]))

    def test_bad_construction(self):
        with pytest.raises(ConfigurationError):
            ISLIPScheduler(0)
        with pytest.raises(ConfigurationError):
            ISLIPScheduler(4, max_iterations=0)


class TestPointerSemantics:
    def test_initial_pointers_favor_input0_output0(self):
        sched = ISLIPScheduler(2)
        d = sched.schedule(_view([[1, 1], [1, 1]]))
        # Both outputs grant input 0 (pointer 0); input 0 accepts output 0
        # (pointer 0); second iteration matches input 1 with output 1.
        assert d.grants[0].output_ports == (0,)
        assert d.grants[1].output_ports == (1,)
        assert d.rounds == 2

    def test_pointers_update_only_on_first_iteration_accept(self):
        sched = ISLIPScheduler(2)
        sched.schedule(_view([[1, 1], [1, 1]]))
        # Output 0's grant to input 0 was accepted in iteration 1.
        assert sched.grant_pointers[0] == 1
        assert sched.accept_pointers[0] == 1
        # Output 1 matched input 1 only in iteration 2: pointers frozen.
        assert sched.grant_pointers[1] == 0
        assert sched.accept_pointers[1] == 0

    def test_desynchronization_reaches_full_matching(self):
        """After one slot the pointers desynchronize and a full backlog
        yields a perfect matching every slot in ONE iteration — the
        mechanism behind iSLIP's 100% throughput claim."""
        sched = ISLIPScheduler(2)
        sched.schedule(_view([[1, 1], [1, 1]]))  # warm-up slot
        for _ in range(4):
            d = sched.schedule(_view([[9, 9], [9, 9]]))
            assert len(d.grants) == 2
            assert d.rounds == 1

    def test_round_robin_fairness_on_contended_output(self):
        """Three inputs fight for one output: grants rotate."""
        sched = ISLIPScheduler(3)
        winners = []
        for _ in range(3):
            occ = [[0, 1, 0], [0, 1, 0], [0, 1, 0]]
            d = sched.schedule(_view(occ))
            winners.extend(d.grants.keys())
        assert winners == [0, 1, 2]

    def test_iteration_cap(self):
        sched = ISLIPScheduler(2, max_iterations=1)
        d = sched.schedule(_view([[1, 1], [1, 1]]))
        assert d.rounds == 1
        assert len(d.grants) == 1  # the iteration-2 match is lost

    def test_reset(self):
        sched = ISLIPScheduler(2)
        sched.schedule(_view([[1, 1], [1, 1]]))
        sched.reset()
        assert sched.grant_pointers == [0, 0]
        assert sched.accept_pointers == [0, 0]
