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
        with pytest.raises(ConfigurationError, match="inherently sequential"):
            make_switch("tatra", 4, backend="vectorized")

    def test_every_other_pairing_constructs_vectorized(self):
        """Every pairing but TATRA builds under ``backend="vectorized"``:
        a dual pairing reports the representation it was asked for, a
        single-bodied one builds the same class under both names and
        reports its one representation."""
        from repro.kernel.equivalence import classify_registry

        object_only, single, dual = classify_registry()
        assert set(object_only) == {"tatra"}
        for name in dual:
            assert make_switch(name, 4).backend == "object", name
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
        assert make_switch("fifoms", 4).backend == "object"
        assert make_switch("fifoms", 4, backend="vectorized").backend == "vectorized"


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
