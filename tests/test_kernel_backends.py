"""Tests for the kernel backend registry and the two implementations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fifoms import FIFOMSScheduler, TieBreak
from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError
from repro.kernel import (
    ObjectBackend,
    VectorizedBackend,
    available_backends,
    make_backend,
    register_backend,
)
from repro.packet import Packet
from repro.schedulers.base import resolve_backend
from repro.schedulers.registry import make_switch
from repro.switch.base import SlotResult


class TestRegistry:
    def test_both_backends_registered(self):
        names = available_backends()
        assert "object" in names and "vectorized" in names
        assert names == tuple(sorted(names))

    def test_make_backend_types(self):
        assert isinstance(make_backend("object", 4), ObjectBackend)
        assert isinstance(make_backend("vectorized", 4), VectorizedBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            make_backend("simd", 4)

    def test_invalid_registration_name_rejected(self):
        with pytest.raises(ConfigurationError):
            register_backend("not a name", lambda n, **kw: None)


class TestResolveBackend:
    def test_fifoms_supports_both(self):
        sched = FIFOMSScheduler(4, tie_break=TieBreak.LOWEST_INPUT)
        assert resolve_backend(sched, "object") == "object"
        assert resolve_backend(sched, "vectorized") == "vectorized"

    def test_unsupported_backend_names_scheduler(self):
        sched = FIFOMSScheduler(4, tie_break=TieBreak.LOWEST_INPUT)
        with pytest.raises(ConfigurationError, match="does not support"):
            resolve_backend(sched, "simd")

    def test_tatra_demotion_rejects_vectorized_with_reason(self):
        """TATRA is single-bodied like the other baselines (the id
        predates that): "vectorized" is accepted and selects nothing,
        the scheduler declares no backend vocabulary of its own."""
        from repro.schedulers.tatra import TATRAScheduler

        sw = make_switch("tatra", 4, backend="vectorized")
        assert type(sw) is type(make_switch("tatra", 4, backend="object"))
        assert sw.backend == "object"
        assert not hasattr(TATRAScheduler, "supported_backends")
        assert not hasattr(TATRAScheduler, "object_only_reason")

    def test_every_other_pairing_constructs_vectorized(self):
        """Every pairing builds under ``backend="vectorized"``: a dual
        pairing reports the representation it was asked for (and builds
        the vectorized one when asked for nothing), a single-bodied one
        builds the same class under both names and reports its one
        representation."""
        from repro.kernel.equivalence import classify_registry

        single, dual = classify_registry()
        assert "tatra" in single
        for name in dual:
            assert make_switch(name, 4).backend == "vectorized", name
            assert make_switch(name, 4, backend="object").backend == "object", name
            sw = make_switch(name, 4, backend="vectorized")
            assert sw.backend == "vectorized", name
        for name in single:
            obj = make_switch(name, 4, backend="object")
            vec = make_switch(name, 4, backend="vectorized")
            assert type(vec) is type(obj), name
            assert vec.backend == obj.backend == "object", name
            with pytest.raises(ConfigurationError, match="unknown kernel backend"):
                make_switch(name, 4, backend="simd")

    def test_registry_injects_backend(self):
        assert make_switch("fifoms", 4).backend == "vectorized"
        assert make_switch("fifoms", 4, backend="object").backend == "object"
        assert make_switch("fifoms", 4, backend="vectorized").backend == "vectorized"


class TestDefaultBackend:
    """``backend`` left unset builds each pairing's fast body: the last
    entry of what its scheduler declares."""

    @staticmethod
    def _scheduler(switch):
        # The strict-priority switch holds one scheduler per class.
        return getattr(switch, "scheduler", None) or switch.schedulers[0]

    def test_whole_registry_default(self):
        from repro.kernel.equivalence import classify_registry
        from repro.schedulers.base import scheduler_backends
        from repro.schedulers.registry import available_schedulers

        single, dual = classify_registry()
        assert len(dual) == 3 and len(single) == 13
        assert sorted([*single, *dual]) == list(available_schedulers())
        for name in dual:
            sw = make_switch(name, 4)
            preferred = scheduler_backends(self._scheduler(sw))[-1]
            assert sw.backend == preferred == "vectorized", name
        for name in single:
            assert make_switch(name, 4).backend == "object", name
        nosplit = make_switch("fifoms", 4, fanout_splitting=False)
        assert nosplit.backend == "object"
        assert nosplit.scheduler.supported_backends == ("object",)

    def test_undeclared_scheduler_builds_object(self):
        from repro.switch.voq_multicast import MulticastVOQSwitch

        class Undeclared:
            name = "third-party"

        assert resolve_backend(Undeclared(), None) == "object"
        assert MulticastVOQSwitch(4, Undeclared()).backend == "object"

    def test_constructors_and_config_default_to_unset(self):
        """The two seamed constructors default to the fast kernel; the
        single-input-queue switch and the config carry no ``backend``."""
        import inspect
        from dataclasses import fields

        from repro.qos.switch import PriorityMulticastVOQSwitch
        from repro.schedulers.siq_fifo import SIQFifoScheduler
        from repro.sim.config import SimulationConfig
        from repro.switch.single_queue import SingleInputQueueSwitch
        from repro.switch.voq_multicast import MulticastVOQSwitch

        assert "backend" not in {f.name for f in fields(SimulationConfig)}
        with pytest.raises(TypeError):
            SimulationConfig(num_slots=10, backend="object")
        assert MulticastVOQSwitch(4).backend == "vectorized"
        assert PriorityMulticastVOQSwitch(4).backend == "vectorized"
        assert "backend" not in inspect.signature(SingleInputQueueSwitch).parameters
        assert SingleInputQueueSwitch(4, SIQFifoScheduler(4)).backend == "object"

    def test_explicit_vectorized_on_tatra_keeps_its_error_text(self):
        """TATRA no longer refuses a registered name (the id predates
        that); an unregistered one gets the single-bodied pairings'
        error text."""
        make_switch("tatra", 4, backend="vectorized")
        with pytest.raises(ConfigurationError) as excinfo:
            make_switch("tatra", 4, backend="simd")
        assert str(excinfo.value) == (
            "switch pairing 'tatra' got unknown kernel backend 'simd'; "
            "available: object, vectorized"
        )

    def test_engine_reports_what_was_built(self):
        from repro.sim.config import SimulationConfig
        from repro.sim.engine import SimulationEngine
        from repro.sim.runner import build_traffic

        traffic = {"model": "bernoulli", "p": 0.2, "b": 0.3}
        cfg = SimulationConfig(num_slots=20)
        for name, built in (("fifoms", "vectorized"), ("tatra", "object")):
            engine = SimulationEngine(
                make_switch(name, 4), build_traffic(traffic, 4, rng=1), cfg
            )
            assert engine.backend == built

    @pytest.mark.parametrize("figure_id", ["fig4", "abl-split"])
    def test_run_figure_summaries_do_not_depend_on_the_backend(self, figure_id):
        """The default, explicit "object" and explicit "vectorized" give
        the same figure; only no-splitting FIFOMS refuses "vectorized",
        by ``FIFOMSScheduler.supported_backends``."""
        from dataclasses import replace

        from repro.experiments.figures import get_figure
        from repro.experiments.sweep import run_figure

        spec = get_figure(figure_id)
        loads = spec.loads[1:3]

        def figure(backend):
            kwargs = {}
            for algorithm in spec.algorithms:
                own = dict(spec.switch_kwargs.get(algorithm, {}))
                refuses = backend == "vectorized" and not own.get(
                    "fanout_splitting", True
                )
                if backend is not None and not refuses:
                    own["backend"] = backend
                kwargs[algorithm] = own
            result = run_figure(
                replace(spec, switch_kwargs=kwargs),
                num_slots=300, seed=5, loads=loads, workers=1,
            )
            # JSON text, so OQFIFO's NaN round averages compare equal.
            return {
                key: summary.to_json()
                for key, summary in result.summaries.items()
            }

        default = figure(None)
        assert len(default) == len(spec.algorithms) * 2
        assert figure("object") == default
        assert figure("vectorized") == default


class TestBackendBehaviour:
    def _loaded_backend(self, name):
        backend = make_backend(name, 4)
        backend.admit(Packet(input_port=0, destinations=(1, 2), arrival_slot=0), 0)
        backend.admit(Packet(input_port=3, destinations=(0,), arrival_slot=0), 0)
        return backend

    def test_same_decision_and_commit_effects(self):
        sched_o = FIFOMSScheduler(4, tie_break=TieBreak.LOWEST_INPUT)
        sched_v = FIFOMSScheduler(4, tie_break=TieBreak.LOWEST_INPUT)
        obj = self._loaded_backend("object")
        vec = self._loaded_backend("vectorized")
        d_obj = obj.schedule(sched_o)
        d_vec = vec.schedule(sched_v)
        assert {i: g.output_ports for i, g in d_obj.grants.items()} == {
            i: g.output_ports for i, g in d_vec.grants.items()
        }
        assert d_obj.rounds == d_vec.rounds
        r_obj, r_vec = SlotResult(slot=0), SlotResult(slot=0)
        obj.commit(d_obj, r_obj, 0)
        vec.commit(d_vec, r_vec, 0)
        assert r_obj.splits == r_vec.splits
        assert r_obj.reclaimed == r_vec.reclaimed
        key = lambda d: (d.packet.input_port, d.output_port, d.service_slot)
        assert sorted(map(key, r_obj.deliveries)) == sorted(map(key, r_vec.deliveries))
        assert obj.queue_sizes() == vec.queue_sizes()
        assert obj.total_backlog() == vec.total_backlog()
        obj.check_invariants()
        vec.check_invariants()

    def test_vectorized_requires_schedule_state(self):
        class NoArrayScheduler:
            name = "stub"

        vec = make_backend("vectorized", 4)
        with pytest.raises(ConfigurationError, match="schedule_state"):
            vec.schedule(NoArrayScheduler())

    def test_driver_row_matches_decision(self):
        vec = make_backend("vectorized", 4)
        decision = ScheduleDecision()
        decision.add(2, (0, 3))
        decision.add(1, (1,))
        row = vec.driver_row(decision)
        assert isinstance(row, np.ndarray)
        assert row.tolist() == [2, 1, -1, 2]

    def test_object_backend_has_no_driver_row_fast_path(self):
        obj = make_backend("object", 4)
        assert obj.driver_row(ScheduleDecision()) is None
