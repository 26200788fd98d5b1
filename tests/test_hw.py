"""Tests for the hardware model: comparator trees and the FIFOMS
control unit (paper §IV / Fig. 3)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.fifoms import FIFOMSScheduler, TieBreak
from repro.errors import ConfigurationError
from repro.hw.comparator import MinComparatorTree
from repro.hw.scheduler_rtl import FIFOMSControlUnit
from repro.packet import Packet
from repro.utils.rng import make_rng
from repro.verify.reference import ReferenceFIFOMS

from conftest import loaded_kernels


class TestComparatorTree:
    def test_min_and_index(self):
        tree = MinComparatorTree(8)
        value, idx = tree.evaluate([5, 3, 9, 1, 7, 2, 8, 6])
        assert (value, idx) == (1, 3)

    def test_tie_resolves_to_lowest_index(self):
        tree = MinComparatorTree(6)
        value, idx = tree.evaluate([4, 2, 7, 2, 2, 9])
        assert (value, idx) == (2, 1)

    def test_masked_lanes_skipped(self):
        tree = MinComparatorTree(4)
        value, idx = tree.evaluate([None, 5, None, 3])
        assert (value, idx) == (3, 3)

    def test_all_masked(self):
        tree = MinComparatorTree(4)
        assert tree.evaluate([None] * 4) == (None, None)

    def test_depth_is_log2(self):
        for width in (1, 2, 3, 4, 7, 8, 16, 33, 64, 128):
            tree = MinComparatorTree(width)
            tree.evaluate(list(range(width)))
            assert tree.stats.depth == tree.theoretical_depth

    def test_comparison_count_is_width_minus_one_when_full(self):
        tree = MinComparatorTree(16)
        tree.evaluate(list(range(16)))
        assert tree.stats.comparisons == 15

    def test_width_mismatch(self):
        with pytest.raises(ConfigurationError):
            MinComparatorTree(4).evaluate([1, 2, 3])

    def test_bad_width(self):
        with pytest.raises(ConfigurationError):
            MinComparatorTree(0)

    @given(
        st.lists(
            st.one_of(st.none(), st.integers(min_value=0, max_value=100)),
            min_size=1,
            max_size=32,
        )
    )
    def test_matches_python_min(self, lanes):
        tree = MinComparatorTree(len(lanes))
        value, idx = tree.evaluate(lanes)
        finite = [(v, i) for i, v in enumerate(lanes) if v is not None]
        if not finite:
            assert (value, idx) == (None, None)
        else:
            expected = min(finite)
            assert (value, idx) == expected


class TestControlUnitCrossValidation:
    def _random_loads(self, n, density, seed):
        rng = make_rng(seed)
        loads = []
        for ts in range(6):  # several waves of arrivals
            for i in range(n):
                if rng.random() < density:
                    dests = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
                    loads.append((i, tuple(sorted(int(d) for d in dests)), ts))
        return loads

    @pytest.mark.parametrize("seed", range(8))
    def test_identical_to_behavioural_scheduler(self, seed):
        """The comparator-fabric execution must match the behavioural
        FIFOMS decision exactly (deterministic tie-break), on production
        and on the reference model."""
        n = 6
        kernels = loaded_kernels(n, *self._random_loads(n, 0.7, seed))
        db = FIFOMSControlUnit(n).schedule(kernels[1].model)
        for kernel in kernels:
            da = kernel.schedule(FIFOMSScheduler(n, tie_break=TieBreak.LOWEST_INPUT))
            assert {i: g.output_ports for i, g in da.grants.items()} == {
                i: g.output_ports for i, g in db.grants.items()
            }
            assert da.rounds == db.rounds

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_staircase_takes_exactly_n_rounds(self, n):
        """§IV.C's worst case, realized on the control unit: input i holds
        one cell for each output 0..i, stamped 0..i, so each round matches
        one more input and the rounds run to N."""
        model = ReferenceFIFOMS(n)
        for i in range(n):
            for k in range(i + 1):
                model.preprocess(Packet(i, (k,), k), k)
        assert FIFOMSControlUnit(n).schedule(model).rounds == n

    def test_latency_accounting(self):
        n = 8
        unit = FIFOMSControlUnit(n)
        model = ReferenceFIFOMS(n)
        model.preprocess(Packet(0, (0, 1), 0), 0)
        unit.schedule(model)
        assert unit.total_rounds == 1
        # One round: input tree depth + output tree depth + feedback.
        assert unit.total_comparator_levels == 2 * 3 + 1
        assert unit.levels_per_round == 7
        assert unit.comparator_count == 2 * 8 * 7

    def test_empty(self):
        unit = FIFOMSControlUnit(4)
        d = unit.schedule(ReferenceFIFOMS(4))
        assert not d and d.rounds == 0

    def test_port_mismatch(self):
        with pytest.raises(ConfigurationError):
            FIFOMSControlUnit(4).schedule(ReferenceFIFOMS(5))
