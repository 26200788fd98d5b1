"""Tests for the plain-values runner (repro.sim.runner)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sim.runner import build_traffic, run_simulation
from repro.traffic.bernoulli import BernoulliMulticastTraffic
from repro.traffic.burst import BurstMulticastTraffic


class TestBuildTraffic:
    def test_bernoulli(self):
        tr = build_traffic({"model": "bernoulli", "p": 0.2, "b": 0.3}, 8)
        assert isinstance(tr, BernoulliMulticastTraffic)
        assert tr.p == 0.2

    def test_burst(self):
        tr = build_traffic(
            {"model": "burst", "e_off": 10, "e_on": 16, "b": 0.5}, 8, rng=0
        )
        assert isinstance(tr, BurstMulticastTraffic)

    def test_missing_model_key(self):
        with pytest.raises(ConfigurationError, match="model"):
            build_traffic({"p": 0.1}, 8)

    def test_unknown_model(self):
        with pytest.raises(ConfigurationError, match="unknown traffic"):
            build_traffic({"model": "pareto"}, 8)

    @pytest.mark.parametrize("key", ["bogus", "class_shares", "rng", "num_ports"])
    def test_unknown_key_names_model_and_key(self, key):
        spec = {"model": "bernoulli", "p": 0.3, "b": 0.2, key: 1}
        with pytest.raises(ConfigurationError, match=f"'bernoulli' takes no key '{key}'"):
            build_traffic(spec, 8)
        with pytest.raises(ConfigurationError, match=f"no key '{key}'"):
            run_simulation("fifoms", 8, spec, num_slots=10)

    def test_spec_not_mutated(self):
        spec = {"model": "bernoulli", "p": 0.2, "b": 0.3}
        build_traffic(spec, 8)
        assert spec == {"model": "bernoulli", "p": 0.2, "b": 0.3}


class TestRunSimulation:
    def test_seed_reproducibility(self):
        kw = dict(num_slots=2000, seed=5)
        a = run_simulation("fifoms", 8, {"model": "bernoulli", "p": 0.3, "b": 0.3}, **kw)
        b = run_simulation("fifoms", 8, {"model": "bernoulli", "p": 0.3, "b": 0.3}, **kw)
        assert a.average_output_delay == b.average_output_delay
        assert a.max_queue_size == b.max_queue_size
        assert a.cells_offered == b.cells_offered

    def test_seed_changes_results(self):
        spec = {"model": "bernoulli", "p": 0.3, "b": 0.3}
        a = run_simulation("fifoms", 8, spec, num_slots=2000, seed=1)
        b = run_simulation("fifoms", 8, spec, num_slots=2000, seed=2)
        assert a.cells_offered != b.cells_offered

    def test_switch_kwargs_forwarded(self):
        s = run_simulation(
            "fifoms",
            4,
            {"model": "uniform", "p": 0.3, "max_fanout": 2},
            num_slots=500,
            seed=0,
            max_iterations=1,
        )
        assert s.max_rounds <= 1

    def test_every_registered_algorithm_runs(self):
        from repro.schedulers.registry import available_schedulers

        for name in available_schedulers():
            s = run_simulation(
                name,
                4,
                {"model": "bernoulli", "p": 0.2, "b": 0.3},
                num_slots=400,
                warmup_fraction=0.0,  # so the conservation audit is exact
                seed=3,
            )
            assert s.slots_run == 400
            assert s.cells_delivered + s.final_backlog == s.cells_offered

    def test_algorithm_label(self):
        s = run_simulation(
            "tatra", 4, {"model": "bernoulli", "p": 0.1, "b": 0.3},
            num_slots=300, seed=0,
        )
        assert s.algorithm == "tatra"
