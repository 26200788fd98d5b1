"""Unit tests for WBA, SIQ-FIFO and the greedy multicast scheduler."""

from __future__ import annotations

import pytest

from repro.core.preprocess import preprocess_packet
from repro.errors import ConfigurationError
from repro.packet import Packet
from repro.schedulers.greedy_mcast import GreedyMcastScheduler
from repro.schedulers.siq_fifo import SIQFifoScheduler
from repro.schedulers.wba import WBAScheduler

from conftest import mk_ports, siq_cell as _cell, siq_view as _view


class TestWBA:
    def test_weight_formula(self):
        sched = WBAScheduler(4, age_coeff=2.0, fanout_coeff=0.5)
        cell = _cell(0, {0, 1}, 3)
        # age at slot 7 = 7-3+1 = 5 -> 2*5 - 0.5*2 = 9
        weight = sched.weight_of(cell.arrival_slot, cell.residue_bits, 7)
        assert weight == pytest.approx(9.0)

    def test_older_heavier_wins(self):
        sched = WBAScheduler(4, rng=0)
        d = sched.schedule(_view(6, _cell(0, {2}, 0), _cell(1, {2}, 5)))
        assert 0 in d.grants and 1 not in d.grants

    def test_fanout_penalty_can_flip_winner(self):
        sched = WBAScheduler(4, age_coeff=1.0, fanout_coeff=3.0, rng=0)
        wide_old = _cell(0, {0, 1, 2, 3}, 4)  # age 3, weight 3 - 12 = -9
        slim_new = _cell(1, {0}, 6)  # age 1, weight 1 - 3 = -2
        d = sched.schedule(_view(6, wide_old, slim_new))
        assert d.grants[1].output_ports == (0,)

    def test_multicast_grant_set_forms(self):
        sched = WBAScheduler(4, rng=0)
        d = sched.schedule(_view(0, _cell(0, {0, 1, 3}, 0)))
        assert d.grants[0].output_ports == (0, 1, 3)

    def test_single_pass(self):
        sched = WBAScheduler(4, rng=0)
        d = sched.schedule(_view(0, _cell(0, {0}, 0), _cell(1, {1}, 0)))
        assert d.rounds == 1

    def test_negative_coeff_rejected(self):
        with pytest.raises(ConfigurationError):
            WBAScheduler(4, age_coeff=-1.0)

    def test_random_tie_covers_all(self):
        sched = WBAScheduler(2, rng=0)
        winners = set()
        for _ in range(40):
            d = sched.schedule(_view(0, _cell(0, {0}, 0), _cell(1, {0}, 0)))
            winners.add(next(iter(d.grants)))
        assert winners == {0, 1}


class TestSIQFifo:
    def test_oldest_wins_each_output(self):
        sched = SIQFifoScheduler(4, rng=0)
        d = sched.schedule(_view(6, _cell(0, {1, 2}, 5), _cell(1, {1}, 2)))
        assert d.grants[1].output_ports == (1,)
        assert d.grants[0].output_ports == (2,)

    def test_empty(self):
        d = SIQFifoScheduler(4).schedule(_view(0))
        assert not d and not d.requests_made

    def test_decision_feasible(self):
        sched = SIQFifoScheduler(4, rng=1)
        cells = [_cell(i, {0, 1, 2, 3}, i) for i in range(4)]
        d = sched.schedule(_view(4, *cells))
        d.validate(4, 4)
        # The single oldest HOL cell takes everything.
        assert d.grants[0].output_ports == (0, 1, 2, 3)


class TestGreedyMcast:
    def test_pointer_rotation(self):
        sched = GreedyMcastScheduler(2)
        winners = []
        for _ in range(2):
            ports = mk_ports(2)
            for i in range(2):
                preprocess_packet(ports[i], Packet(i, (0,), 0), 0)
            winners.append(next(iter(sched.schedule(ports).grants)))
        assert winners == [0, 1]

    def test_claims_whole_packet_of_free_outputs(self):
        sched = GreedyMcastScheduler(4)
        ports = mk_ports(4)
        preprocess_packet(ports[0], Packet(0, (0, 2), 0), 0)
        d = sched.schedule(ports)
        assert d.grants[0].output_ports == (0, 2)

    def test_later_input_takes_leftovers(self):
        sched = GreedyMcastScheduler(4)
        ports = mk_ports(4)
        preprocess_packet(ports[0], Packet(0, (0, 1), 0), 0)
        preprocess_packet(ports[1], Packet(1, (1, 3), 0), 0)
        d = sched.schedule(ports)
        assert d.grants[0].output_ports == (0, 1)
        assert d.grants[1].output_ports == (3,)  # output 1 already taken

    def test_port_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            GreedyMcastScheduler(4).schedule(mk_ports(3))
