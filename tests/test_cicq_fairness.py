"""Tests for the buffered crossbar (CICQ) switch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.runner import run_simulation
from repro.switch.cicq import BufferedCrossbarSwitch

from conftest import make_packet


def _lane(n, *pkts):
    lanes = [None] * n
    for p in pkts:
        lanes[p.input_port] = p
    return lanes


class TestCICQMechanics:
    def test_bad_depth(self):
        with pytest.raises(ConfigurationError):
            BufferedCrossbarSwitch(4, crosspoint_depth=0)

    def test_cell_crosses_in_one_slot(self):
        sw = BufferedCrossbarSwitch(4)
        r = sw.step(_lane(4, make_packet(0, (2,), 0)), 0)
        # Input stage forwards into the crosspoint, output stage drains it
        # in the same slot: delay 1 on an idle switch.
        assert len(r.deliveries) == 1
        assert r.deliveries[0].delay == 1
        assert sw.total_backlog() == 0

    def test_crosspoint_depth_respected(self):
        sw = BufferedCrossbarSwitch(2, crosspoint_depth=1)
        # Saturate one crosspoint: input 0 and input 1 both feed output 0.
        for slot in range(6):
            pkts = [make_packet(0, (0,), slot), make_packet(1, (0,), slot)]
            sw.step(_lane(2, *pkts), slot)
            sw.check_invariants()  # depth bound enforced every slot

    def test_no_central_matching_needed_for_disjoint_flows(self):
        sw = BufferedCrossbarSwitch(3)
        pkts = [make_packet(i, ((i + 1) % 3,), 0) for i in range(3)]
        r = sw.step(_lane(3, *pkts), 0)
        assert len(r.deliveries) == 3  # all three flows crossed at once

    def test_conservation(self):
        rng = np.random.default_rng(2)
        sw = BufferedCrossbarSwitch(4, crosspoint_depth=2)
        offered = delivered = 0
        for slot in range(80):
            lanes = []
            for i in range(4):
                if rng.random() < 0.6:
                    dests = tuple(
                        int(x)
                        for x in rng.choice(4, size=int(rng.integers(1, 4)), replace=False)
                    )
                    lanes.append(make_packet(i, dests, slot))
                    offered += len(set(dests))
            delivered += sw.step(_lane(4, *lanes), slot).cells_delivered
            sw.check_invariants()
        assert delivered + sw.total_backlog() == offered

    def test_sustains_high_uniform_load(self):
        s = run_simulation(
            "cicq", 8, {"model": "uniform", "p": 0.9, "max_fanout": 1},
            num_slots=12_000, seed=7,
        )
        assert not s.unstable
        assert s.delivery_ratio == pytest.approx(1.0, abs=0.02)

    def test_deeper_crosspoints_do_not_hurt(self):
        spec = {"model": "uniform", "p": 0.8, "max_fanout": 1}
        d1 = run_simulation("cicq", 8, spec, num_slots=8000, seed=3)
        d4 = run_simulation(
            "cicq", 8, spec, num_slots=8000, seed=3, crosspoint_depth=4
        )
        assert d4.average_output_delay <= d1.average_output_delay * 1.1
