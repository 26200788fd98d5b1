"""Unit tests for SIQ-FIFO and the greedy multicast scheduler."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.kernel.state import SwitchState
from repro.schedulers.greedy_mcast import GreedyMcastScheduler
from repro.schedulers.siq_fifo import SIQFifoScheduler

from conftest import loaded_kernels, siq_cell as _cell, siq_view as _view


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
    """Each case runs on production and on the reference model."""

    def test_pointer_rotation(self):
        for kernel in loaded_kernels(2, (0, (0,), 0), (1, (0,), 0)):
            sched = GreedyMcastScheduler(2)
            winners = [next(iter(kernel.schedule(sched).grants)) for _ in range(2)]
            assert winners == [0, 1]

    def test_claims_whole_packet_of_free_outputs(self):
        for kernel in loaded_kernels(4, (0, (0, 2), 0)):
            d = kernel.schedule(GreedyMcastScheduler(4))
            assert d.grants[0].output_ports == (0, 2)

    def test_later_input_takes_leftovers(self):
        for kernel in loaded_kernels(4, (0, (0, 1), 0), (1, (1, 3), 0)):
            d = kernel.schedule(GreedyMcastScheduler(4))
            assert d.grants[0].output_ports == (0, 1)
            assert d.grants[1].output_ports == (3,)  # output 1 already taken

    def test_port_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            GreedyMcastScheduler(4).schedule_state(SwitchState(3))
