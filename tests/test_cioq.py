"""Tests for the CIOQ (speedup-S) switch extension."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.schedulers.islip import ISLIPScheduler
from repro.sim.runner import run_simulation
from repro.switch.cioq import CIOQSwitch

from conftest import make_packet


def _lane(n, *pkts):
    lanes = [None] * n
    for p in pkts:
        lanes[p.input_port] = p
    return lanes


class TestMechanics:
    def test_bad_speedup(self):
        with pytest.raises(ConfigurationError):
            CIOQSwitch(4, 0)

    def test_speedup_moves_multiple_cells_per_slot(self):
        """A fanout-2 packet splits into two VOQ copies at one input: a
        speedup-2 fabric moves both in one slot (two internal phases),
        speedup 1 needs two slots."""
        sw1 = CIOQSwitch(4, 1, ISLIPScheduler(4))
        sw2 = CIOQSwitch(4, 2, ISLIPScheduler(4))
        r1 = sw1.step(_lane(4, make_packet(0, (1, 2), 0)), 0)
        r2 = sw2.step(_lane(4, make_packet(0, (1, 2), 0)), 0)
        assert len(r1.deliveries) == 1
        assert len(r2.deliveries) == 2
        assert sw1.queue_sizes()[0] == 1  # one copy still at the input
        assert sw2.queue_sizes()[0] == 0

    def test_one_departure_per_output_per_slot(self):
        sw = CIOQSwitch(4, 4, ISLIPScheduler(4))
        pkts = [make_packet(i, (0,), 0) for i in range(3)]
        r0 = sw.step(_lane(4, *pkts), 0)
        # Speedup 4 stages all three cells at output 0 but the line rate
        # still allows exactly one departure.
        assert len(r0.deliveries) == 1
        assert sw.output_queue_sizes()[0] == 2

    def test_conservation(self):
        sw = CIOQSwitch(4, 2, ISLIPScheduler(4))
        offered = 0
        import numpy as np

        rng = np.random.default_rng(1)
        delivered = 0
        for slot in range(50):
            lanes = []
            for i in range(4):
                if rng.random() < 0.5:
                    dests = tuple(
                        int(x)
                        for x in rng.choice(4, size=int(rng.integers(1, 3)), replace=False)
                    )
                    lanes.append(make_packet(i, dests, slot))
                    offered += len(set(dests))
            delivered += sw.step(_lane(4, *lanes), slot).cells_delivered
            sw.check_invariants()
        assert delivered + sw.total_backlog() == offered


class TestSpeedupClosesTheOQGap:
    @pytest.mark.parametrize("load", [0.7, 0.85])
    def test_delay_ordering_s1_s2_oq(self, load):
        """Unicast delay: speedup 1 (= iSLIP) >= speedup 2 ~ OQFIFO."""
        spec = {"model": "uniform", "p": load, "max_fanout": 1}
        kw = dict(num_slots=15_000, seed=8)
        s1 = run_simulation("cioq-islip", 16, spec, speedup=1, **kw)
        s2 = run_simulation("cioq-islip", 16, spec, speedup=2, **kw)
        oq = run_simulation("oqfifo", 16, spec, **kw)
        assert s2.average_output_delay <= s1.average_output_delay + 1e-9
        # The classic result: speedup 2 closely approaches OQ delay.
        assert s2.average_output_delay <= oq.average_output_delay * 1.3 + 0.5

    def test_registry_kwarg(self):
        s = run_simulation(
            "cioq-islip", 8,
            {"model": "uniform", "p": 0.5, "max_fanout": 1},
            num_slots=2000, seed=1, speedup=3,
        )
        assert not s.unstable
