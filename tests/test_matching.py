"""Unit tests for repro.core.matching (GrantSet / ScheduleDecision)."""

from __future__ import annotations

import pytest

from repro.core.fifoms import FIFOMSScheduler, TieBreak
from repro.core.matching import GrantSet, ScheduleDecision
from repro.errors import SchedulingError

from conftest import loaded_kernels


class TestGrantSet:
    def test_sorted_deduped(self):
        g = GrantSet(0, (3, 1, 3))
        assert g.output_ports == (1, 3)
        assert g.fanout == 2

    def test_empty_rejected(self):
        with pytest.raises(SchedulingError):
            GrantSet(0, ())


class TestScheduleDecision:
    def test_add_and_len(self):
        d = ScheduleDecision()
        d.add(0, (1, 2))
        d.add(3, (0,))
        assert len(d) == 2
        assert bool(d)
        assert d.matched_outputs == 3

    def test_double_grant_same_input_rejected(self):
        d = ScheduleDecision()
        d.add(0, (1,))
        with pytest.raises(SchedulingError):
            d.add(0, (2,))

    def test_validate_accepts_feasible(self):
        d = ScheduleDecision()
        d.add(0, (0, 1))
        d.add(1, (2,))
        d.validate(4, 4)

    def test_validate_rejects_output_conflict(self):
        d = ScheduleDecision()
        d.add(0, (1,))
        d.add(2, (1,))
        with pytest.raises(SchedulingError):
            d.validate(4, 4)

    def test_validate_rejects_out_of_range(self):
        d = ScheduleDecision()
        d.add(0, (5,))
        with pytest.raises(SchedulingError):
            d.validate(4, 4)
        d2 = ScheduleDecision()
        d2.add(9, (0,))
        with pytest.raises(SchedulingError):
            d2.validate(4, 4)

    def test_empty_decision_is_falsey(self):
        d = ScheduleDecision()
        assert not d
        d.validate(4, 4)


def _decisions(n, *loads, **scheduler_kwargs):
    """One decision per kernel (production, reference) over the same
    ``(input, destinations, timestamp)`` arrivals, each by a fresh
    scheduler built from ``scheduler_kwargs``."""
    return [
        kernel.schedule(FIFOMSScheduler(n, **scheduler_kwargs))
        for kernel in loaded_kernels(n, *loads)
    ]


def _grants(decision):
    return {i: g.output_ports for i, g in decision.grants.items()}


class TestMatchingEdgeCases:
    """Decision-shape edge cases, checked on production and on the
    reference model."""

    def test_empty_request_matrix(self):
        for decision in _decisions(4, tie_break=TieBreak.LOWEST_INPUT):
            assert not decision
            assert not decision.requests_made
            assert decision.grants == {}
            assert decision.matched_outputs == 0
            decision.validate(4, 4)

    def test_full_fanout_single_input(self):
        for decision in _decisions(
            4, (2, (0, 1, 2, 3), 0), tie_break=TieBreak.LOWEST_INPUT
        ):
            assert _grants(decision) == {2: (0, 1, 2, 3)}
            assert decision.matched_outputs == 4
            assert decision.requests_made

    def test_equal_timestamp_tie_lowest_input(self):
        """Three equal-timestamp HOL cells contending for output 1:
        LOWEST_INPUT must give it to the smallest input index."""
        loads = [(i, (1,), 0) for i in (3, 0, 2)]
        for decision in _decisions(4, *loads, tie_break=TieBreak.LOWEST_INPUT):
            assert _grants(decision) == {0: (1,)}

    @pytest.mark.parametrize("tie", list(TieBreak), ids=lambda t: t.value)
    def test_equal_timestamp_tie_parity_across_entry_points(self, tie):
        """Whatever the tie-break policy picks, production and the
        reference must pick the *same* winner (same RNG draws)."""
        loads = [(i, (1, 2), 0) for i in range(4)]
        prod, ref = _decisions(
            4, *loads, tie_break=tie, rng=99
        )
        assert _grants(ref) == _grants(prod)
        assert ref.rounds == prod.rounds
        assert list(ref.round_grants) == list(prod.round_grants)
