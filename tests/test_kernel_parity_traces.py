"""The vectorized kernel backend behind the reference FIFOMS / iSLIP
switches: exact parity with the object backend on pinned traces, and the
paper behaviours it must preserve."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.kernel.equivalence import compare_summaries, run_pair
from repro.schedulers.registry import make_switch
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.traffic.bernoulli import BernoulliMulticastTraffic
from repro.traffic.burst import BurstMulticastTraffic
from repro.traffic.trace import TraceTraffic
from repro.traffic.uniform import UniformFanoutTraffic

from conftest import make_packet


def _vectorized_run(algorithm, traffic, cfg, **switch_kwargs):
    switch = make_switch(
        algorithm, traffic.num_ports, backend="vectorized", **switch_kwargs
    )
    return SimulationEngine(
        switch, traffic, cfg, algorithm_name=algorithm
    ).run()


class TestExactParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fifoms_bernoulli(self, seed):
        tr = BernoulliMulticastTraffic(8, p=0.3, b=0.3, rng=seed)
        ref, fast = run_pair("fifoms", tr, 2500)
        assert compare_summaries(ref, fast) == []

    def test_fifoms_heavy_load(self):
        tr = BernoulliMulticastTraffic(8, p=0.55, b=0.3, rng=9)
        ref, fast = run_pair("fifoms", tr, 2500)
        assert compare_summaries(ref, fast) == []

    def test_fifoms_unicast(self):
        tr = UniformFanoutTraffic(8, p=0.8, max_fanout=1, rng=3)
        ref, fast = run_pair("fifoms", tr, 2500)
        assert compare_summaries(ref, fast) == []

    @pytest.mark.parametrize("seed", [0, 1])
    def test_islip_bernoulli(self, seed):
        tr = BernoulliMulticastTraffic(8, p=0.25, b=0.3, rng=seed)
        ref, fast = run_pair("islip", tr, 2500)
        assert compare_summaries(ref, fast) == []

    def test_islip_burst(self):
        tr = BurstMulticastTraffic(8, e_off=60, e_on=8, b=0.4, rng=4)
        ref, fast = run_pair("islip", tr, 2500)
        assert compare_summaries(ref, fast) == []

    def test_unknown_algorithm(self):
        tr = BernoulliMulticastTraffic(4, p=0.2, b=0.3, rng=0)
        with pytest.raises(ConfigurationError):
            run_pair("no-such-algo", tr, 100)

    def test_formerly_unpaired_algorithm_now_works(self):
        # Any registry pairing runs both backends, not just the three
        # algorithms the bespoke fast engines covered.
        tr = BernoulliMulticastTraffic(4, p=0.2, b=0.3, rng=0)
        ref, fast = run_pair("wba", tr, 400)
        assert compare_summaries(ref, fast) == []


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
            rng=0,
        )
        assert s.unstable
        assert s.slots_run < 4000
