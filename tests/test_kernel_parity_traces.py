"""Production FIFOMS and iSLIP on pinned traces: the paper behaviours
they must preserve. FIFOMS's decisions are held to the reference model
by ``tests/test_kernel_equivalence.py``, iSLIP's stream by the golden
pins of ``tests/test_single_body_golden.py``."""

from __future__ import annotations

import pytest

from repro.schedulers.registry import make_switch
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.traffic.bernoulli import BernoulliMulticastTraffic
from repro.traffic.trace import TraceTraffic

from conftest import make_packet


def _vectorized_run(algorithm, traffic, cfg, **switch_kwargs):
    switch = make_switch(
        algorithm, traffic.num_ports, backend="vectorized", **switch_kwargs
    )
    return SimulationEngine(
        switch, traffic, cfg, algorithm_name=algorithm
    ).run()


class TestFastEngineBehaviour:
    def test_deterministic_multicast_scenario(self):
        pkts = [make_packet(0, (0, 1, 2), 0)]
        cfg = SimulationConfig(num_slots=3, warmup_fraction=0.0, stability_window=0)
        s = _vectorized_run(
            "fifoms", TraceTraffic(4, pkts), cfg, tie_break="lowest_input"
        )
        assert s.cells_delivered == 3
        assert s.average_output_delay == pytest.approx(1.0)
        assert s.average_input_delay == pytest.approx(1.0)
        assert s.final_backlog == 0

    def test_islip_splits_multicast(self):
        pkts = [make_packet(0, (0, 1, 2), 0)]
        cfg = SimulationConfig(num_slots=5, warmup_fraction=0.0, stability_window=0)
        s = _vectorized_run("islip", TraceTraffic(4, pkts), cfg)
        assert s.cells_delivered == 3
        # One copy per slot: delays 1, 2, 3.
        assert s.average_output_delay == pytest.approx(2.0)
        assert s.average_input_delay == pytest.approx(3.0)

    def test_random_tiebreak_statistical_sanity(self):
        """Random-tie vectorized FIFOMS under a different tie-break seed
        must track the reference closely in distribution even though
        slot decisions differ."""
        cfg = SimulationConfig(num_slots=6000, warmup_fraction=0.5, stability_window=0)
        fast = _vectorized_run(
            "fifoms", BernoulliMulticastTraffic(8, p=0.4, b=0.3, rng=1), cfg,
            rng=2,
        )
        from repro.sim.runner import run_simulation

        ref = run_simulation(
            "fifoms", 8, {"model": "bernoulli", "p": 0.4, "b": 0.3},
            num_slots=6000, seed=1,
        )
        assert fast.average_output_delay == pytest.approx(
            ref.average_output_delay, rel=0.1
        )
        assert fast.average_queue_size == pytest.approx(
            ref.average_queue_size, rel=0.2
        )

    def test_instability_detection(self):
        cfg = SimulationConfig(
            num_slots=4000, warmup_fraction=0.0, max_backlog=500, stability_window=50
        )
        s = _vectorized_run(
            "fifoms", BernoulliMulticastTraffic(8, p=1.0, b=0.9, rng=0), cfg,
            rng=1,
        )
        assert s.unstable
        assert s.slots_run < 4000
