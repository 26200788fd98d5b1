"""Unit tests for the FIFOMS scheduler (paper Table 2 semantics).

Every hand-checked decision is asserted twice: on production
(``schedule_state`` over a ``SwitchState``) and on the reference model
(repro.verify.reference, the ``object`` kernel), which share no code.
"""

from __future__ import annotations

import pytest

from repro.core.fifoms import FIFOMSScheduler, TieBreak
from repro.errors import ConfigurationError
from repro.kernel.state import SwitchState

from conftest import loaded_kernels

LOWEST = {"tie_break": TieBreak.LOWEST_INPUT}


def decisions(n, *loads, **scheduler_kwargs):
    """One decision per kernel, each by a fresh scheduler, over the same
    ``(input, destinations, timestamp)`` arrivals."""
    return [
        kernel.schedule(FIFOMSScheduler(n, **scheduler_kwargs))
        for kernel in loaded_kernels(n, *loads)
    ]


class TestConstruction:
    def test_bad_ports(self):
        with pytest.raises(ConfigurationError):
            FIFOMSScheduler(0)

    def test_bad_iterations(self):
        with pytest.raises(ConfigurationError):
            FIFOMSScheduler(4, max_iterations=0)

    def test_bad_tiebreak(self):
        with pytest.raises(ConfigurationError):
            FIFOMSScheduler(4, tie_break="random")  # must be the enum

    def test_port_count_mismatch(self):
        sched = FIFOMSScheduler(4)
        with pytest.raises(ConfigurationError):
            sched.schedule_state(SwitchState(3))


class TestMulticastInOneSlot:
    def test_whole_fanout_granted_together(self):
        """A lone multicast packet reaches all destinations in one slot —
        the crossbar multicast capability FIFOMS is designed to use."""
        for decision in decisions(4, (0, (0, 2, 3), 0), **LOWEST):
            assert decision.grants[0].output_ports == (0, 2, 3)
            assert decision.rounds == 1

    def test_two_disjoint_multicasts_same_slot(self):
        for decision in decisions(4, (0, (0, 1), 0), (1, (2, 3), 0), **LOWEST):
            assert decision.grants[0].output_ports == (0, 1)
            assert decision.grants[1].output_ports == (2, 3)
            assert decision.rounds == 1


class TestTimestampArbitration:
    def test_older_packet_wins_contended_output(self):
        older, newer = (0, (1,), 3), (1, (1,), 5)
        for decision in decisions(4, older, newer, **LOWEST):
            assert decision.grants[0].output_ports == (1,)
            assert 1 not in decision.grants

    def test_tie_lowest_input(self):
        for decision in decisions(4, (0, (2,), 0), (3, (2,), 0), **LOWEST):
            assert 0 in decision.grants and 3 not in decision.grants

    def test_tie_round_robin_rotates(self):
        tied = [(i, (2,), 0) for i in range(3)]
        for kernel in loaded_kernels(4, *tied):
            sched = FIFOMSScheduler(4, tie_break=TieBreak.ROUND_ROBIN)
            winners = [next(iter(kernel.schedule(sched).grants)) for _ in range(3)]
            # Pointer advances past each winner: 0, then 1, then 2.
            assert winners == [0, 1, 2]

    def test_tie_random_covers_both(self):
        for kernel in loaded_kernels(2, (0, (0,), 0), (1, (0,), 0)):
            sched = FIFOMSScheduler(2, tie_break=TieBreak.RANDOM, rng=0)
            hits = {next(iter(kernel.schedule(sched).grants)) for _ in range(40)}
            assert hits == {0, 1}

    def test_loser_wins_other_output_in_later_round(self):
        """The iterative rounds let a losing input match elsewhere."""
        loads = [
            (0, (1,), 0),
            (1, (1,), 2),  # loses output 1 to input 0 in round 1
            (1, (3,), 4),  # but can still win output 3 in round 2
        ]
        for decision in decisions(4, *loads, **LOWEST):
            assert decision.grants[0].output_ports == (1,)
            assert decision.grants[1].output_ports == (3,)
            assert decision.rounds == 2


class TestMatchedInputStopsRequesting:
    def test_partial_multicast_grant_leaves_residue(self):
        """§III.B.1 case 2: once matched, an input cannot request again,
        so the destinations it lost stay queued for later slots."""
        # Input 1 ties with input 0 on output 1. Input 0 wins both its
        # outputs (lowest-input ties); input 1 gets nothing this slot and
        # must not steal a later-round grant from a different data cell
        # at input 0.
        for decision in decisions(4, (0, (0, 1), 0), (1, (1,), 0), **LOWEST):
            assert decision.grants[0].output_ports == (0, 1)
            assert 1 not in decision.grants

    def test_same_timestamp_grants_only(self):
        """All grants to one input in a slot carry one timestamp (one
        packet): an input holding {old->1} and {new->2} must not send to
        both outputs in the same slot."""
        for decision in decisions(4, (0, (1,), 0), (0, (2,), 1), **LOWEST):
            assert decision.grants[0].output_ports == (1,)


class TestBlockedOutputs:
    def test_hol_skips_busy_output(self):
        """A HOL cell whose output is taken does not block the input's
        *other* queues — the whole point of VOQ (no HOL blocking)."""
        loads = [
            (0, (1,), 0),  # oldest overall, wins output 1
            (1, (1,), 2),  # blocked on output 1 ...
            (1, (2,), 3),  # ... but output 2 is free
        ]
        for decision in decisions(4, *loads, **LOWEST):
            assert decision.grants[1].output_ports == (2,)

    def test_empty_ports_no_requests(self):
        for decision in decisions(4):
            assert not decision
            assert decision.rounds == 0
            assert not decision.requests_made


class TestIterationCap:
    def test_single_iteration_cap(self):
        loads = [(0, (1,), 0), (1, (1,), 2), (1, (3,), 4)]
        for decision in decisions(4, *loads, max_iterations=1, **LOWEST):
            # Round 2 (input 1 -> output 3) is cut off by the cap.
            assert decision.rounds == 1
            assert 1 not in decision.grants

    def test_worst_case_is_exactly_n_rounds(self):
        """§IV.C: worst case N rounds. Staircase: input i queues packets
        ts=k -> output k for k = 0..i, so every round all free inputs tie
        on the same oldest output and exactly one match forms."""
        n = 6
        staircase = [(i, (k,), k) for i in range(n) for k in range(i + 1)]
        for decision in decisions(n, *staircase, **LOWEST):
            assert decision.rounds == n
            for i in range(n):
                assert decision.grants[i].output_ports == (i,)


class TestNoSplitVariant:
    NO_SPLIT = {"fanout_splitting": False, **LOWEST}

    def test_all_or_nothing(self):
        # Oldest packet (input 0) claims {0,1} entirely; input 1's packet
        # conflicts on output 1 and is skipped whole.
        for decision in decisions(4, (0, (0, 1), 0), (1, (1,), 1), **self.NO_SPLIT):
            assert decision.grants[0].output_ports == (0, 1)
            assert 1 not in decision.grants

    def test_disjoint_packets_both_granted(self):
        loads = [(0, (0, 1), 0), (1, (2, 3), 5)]
        for decision in decisions(4, *loads, **self.NO_SPLIT):
            assert decision.grants[0].output_ports == (0, 1)
            assert decision.grants[1].output_ports == (2, 3)

    def test_empty(self):
        for decision in decisions(4, fanout_splitting=False):
            assert not decision and decision.rounds == 0


class TestReset:
    def test_reset_clears_rr_pointers(self):
        sched = FIFOMSScheduler(4, tie_break=TieBreak.ROUND_ROBIN)
        production, _ = loaded_kernels(4, (0, (2,), 0), (1, (2,), 0))
        production.schedule(sched)
        assert sched._grant_pointers != [0, 0, 0, 0]
        sched.reset()
        assert sched._grant_pointers == [0, 0, 0, 0]
