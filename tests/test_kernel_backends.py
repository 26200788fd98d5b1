"""Tests for the kernel backend registry and the two implementations."""

from __future__ import annotations

import pytest

from repro.core.fifoms import FIFOMSScheduler, TieBreak
from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError
from repro.kernel import (
    ReferenceBackend,
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
        assert isinstance(make_backend("object", 4), ReferenceBackend)
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
        assert not hasattr(TATRAScheduler, "schedule_state")
        assert not hasattr(TATRAScheduler, "object_only_reason")

    def test_every_other_pairing_constructs_vectorized(self):
        """Every pairing builds under ``backend="vectorized"``: a dual
        pairing reports the representation it was asked for (and builds
        the vectorized one when asked for nothing), a single-bodied one
        builds the same class under both names and reports its one
        representation."""
        from repro.verify.grid import classify_registry

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
    """``backend`` left unset builds each pairing's fast body: the
    vectorized kernel whenever its scheduler defines ``schedule_state``."""

    def test_whole_registry_default(self):
        from repro.verify.grid import classify_registry
        from repro.schedulers.registry import available_schedulers

        single, dual = classify_registry()
        assert len(dual) == 2 and len(single) == 9
        assert sorted([*single, *dual]) == list(available_schedulers())
        for name in dual:
            assert make_switch(name, 4).backend == "vectorized", name
        for name in single:
            assert make_switch(name, 4).backend == "object", name
        nosplit = make_switch("fifoms", 4, fanout_splitting=False)
        assert nosplit.backend == "vectorized"
        assert isinstance(nosplit._backend, VectorizedBackend)
        reference = make_switch(
            "fifoms", 4, fanout_splitting=False, backend="object"
        )
        assert isinstance(reference._backend, ReferenceBackend)

    def test_undeclared_scheduler_is_refused(self):
        """No silent fallback: a scheduler without ``schedule_state`` is
        refused at construction, whatever ``backend`` says."""
        from repro.switch.voq_multicast import MulticastVOQSwitch

        class Undeclared:
            name = "third-party"

            def schedule(self, ports):
                return ScheduleDecision()

        for backend in (None, "object", "vectorized"):
            with pytest.raises(ConfigurationError, match="schedule_state"):
                MulticastVOQSwitch(4, Undeclared(), backend=backend)

    def test_scheduler_without_reference_is_refused_by_object(self):
        """A scheduler with ``schedule_state`` builds production; the
        ``object`` kernel, which runs the reference model of FIFOMS and
        greedy-mcast only, refuses it at construction."""
        from repro.switch.voq_multicast import MulticastVOQSwitch

        class WithArrayEntry:
            name = "third-party"

            def schedule_state(self, state, *, input_free=None, output_free=None):
                return ScheduleDecision()

        assert MulticastVOQSwitch(4, WithArrayEntry()).backend == "vectorized"
        with pytest.raises(ConfigurationError, match="'third-party' has no reference"):
            MulticastVOQSwitch(4, WithArrayEntry(), backend="object")
        for name in ("fifoms", "greedy-mcast"):
            assert make_switch(name, 4, backend="object").backend == "object"

    def test_constructors_and_config_default_to_unset(self):
        """The seamed constructor defaults to the fast kernel; the
        single-input-queue switch and the config carry no ``backend``."""
        import inspect
        from dataclasses import fields

        from repro.schedulers.siq_fifo import SIQFifoScheduler
        from repro.sim.config import SimulationConfig
        from repro.switch.single_queue import SingleInputQueueSwitch
        from repro.switch.voq_multicast import MulticastVOQSwitch

        assert "backend" not in {f.name for f in fields(SimulationConfig)}
        with pytest.raises(TypeError):
            SimulationConfig(num_slots=10, backend="object")
        assert MulticastVOQSwitch(4).backend == "vectorized"
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
            assert engine.switch.backend == built

    @pytest.mark.parametrize("figure_id", ["fig4", "abl-split"])
    def test_run_figure_summaries_do_not_depend_on_the_backend(self, figure_id):
        """The default, explicit "object" and explicit "vectorized" give
        the same figure, no-splitting FIFOMS (``abl-split``) included."""
        from dataclasses import replace

        from repro.experiments.figures import get_figure
        from repro.experiments.sweep import run_figure

        spec = get_figure(figure_id)
        loads = spec.loads[1:3]

        def figure(backend):
            kwargs = {}
            for algorithm in spec.algorithms:
                own = dict(spec.switch_kwargs.get(algorithm, {}))
                if backend is not None:
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
        """Support is read off the method: a scheduler without
        ``schedule_state`` is refused the vectorized kernel at build."""
        from repro.switch.voq_multicast import MulticastVOQSwitch

        class NoArrayScheduler:
            name = "stub"

        with pytest.raises(
            ConfigurationError, match=r"'stub' defines no schedule_state"
        ):
            MulticastVOQSwitch(4, NoArrayScheduler(), backend="vectorized")

    def _configured_masks(self, name):
        """Masks every ``crossbar.configure`` call received over two
        slots of a FIFOMS switch on kernel ``name``."""
        switch = make_switch(
            "fifoms", 4, backend=name, tie_break=TieBreak.LOWEST_INPUT
        )
        seen = []
        configure = switch.crossbar.configure

        def spy(decision):
            config = configure(decision)
            seen.append((dict(decision.masks), config.driver))
            return config

        switch.crossbar.configure = spy
        switch.step(
            [
                Packet(input_port=0, destinations=(1, 2), arrival_slot=0),
                None,
                Packet(input_port=2, destinations=(2, 3), arrival_slot=0),
                Packet(input_port=3, destinations=(0,), arrival_slot=0),
            ],
            0,
        )
        switch.step([None] * 4, 1)
        return seen

    def test_driver_row_matches_decision(self):
        """Both kernels configure the crossbar from the same masks; the
        driver row is derived from them on read."""
        want = [
            ({0: 0b0110, 2: 0b1000, 3: 0b0001}, (3, 0, 0, 2)),
            ({2: 0b0100}, (-1, -1, 2, -1)),
        ]
        assert self._configured_masks("object") == want
        assert self._configured_masks("vectorized") == want

    def test_object_backend_has_no_driver_row_fast_path(self):
        """Neither kernel builds a driver vector any more: both hand back
        the decision's own masks, in decision order, as the rows they
        commit — the masks the crossbar was configured from."""
        decision = ScheduleDecision()
        decision.add(2, (0, 3))
        decision.add(0, (1,))
        for name in ("object", "vectorized"):
            rows = make_backend(name, 4).driver_row(decision)
            assert list(rows) == [(2, 0b1001), (0, 0b0010)]


class TestReferenceIndependence:
    def test_reference_imports_only_stdlib_and_errors(self):
        """The grid compares production against code it shares nothing
        with: repro.verify.reference imports the standard library and
        repro.errors, nothing else of the project."""
        import ast
        import sys
        from pathlib import Path

        import repro.verify.reference as reference

        tree = ast.parse(Path(reference.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, "relative import in the reference"
                imported.add(node.module)
        project = {name for name in imported if name.split(".")[0] == "repro"}
        assert project == {"repro.errors"}
        others = {name.split(".")[0] for name in imported - project}
        assert others <= set(sys.stdlib_module_names), others
