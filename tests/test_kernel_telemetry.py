"""Kernel-seam telemetry: harvest_slot_stats on both backends, the
kernel.* metric series the instrumented engine derives from it, and the
cross-backend equality contract."""

from __future__ import annotations

import json

import pytest

from repro.core.fifoms import FIFOMSScheduler, TieBreak
from repro.kernel.base import KernelBackend
from repro.sim.runner import run_simulation
from repro.obs import Telemetry
from repro.switch.voq_multicast import MulticastVOQSwitch

from conftest import make_packet

TRAFFIC = {"model": "bernoulli", "p": 0.35, "b": 0.3}

HARVEST_KEYS = {"live_cells", "residue_cells", "voq_peak", "oldest_hol_ts"}


def _switch(backend):
    return MulticastVOQSwitch(
        4,
        FIFOMSScheduler(4, tie_break=TieBreak.LOWEST_INPUT),
        backend=backend,
    )


class TestHarvestSlotStats:
    @pytest.mark.parametrize("backend", ["object", "vectorized"])
    def test_empty_switch(self, backend):
        stats = _switch(backend).harvest_slot_stats()
        assert set(stats) == HARVEST_KEYS
        assert stats["live_cells"] == 0
        assert stats["residue_cells"] == 0
        assert stats["voq_peak"] == 0
        assert stats["oldest_hol_ts"] is None

    @pytest.mark.parametrize("backend", ["object", "vectorized"])
    def test_fanout_split_leaves_residue(self, backend):
        """Two multicast packets contending for output 0: the loser of
        the contention is served partially, leaving exactly one residue
        cell, which the next slot clears."""
        sw = _switch(backend)
        arrivals = [None] * 4
        arrivals[0] = make_packet(0, (0, 1), 0)
        arrivals[1] = make_packet(1, (0, 2), 0)
        sw.step(arrivals, 0)
        stats = sw.harvest_slot_stats()
        # Output 0 went to one input; the other delivered its free
        # destination only and keeps a residue cell with fanout 1 left.
        assert stats["live_cells"] == 1
        assert stats["residue_cells"] == 1
        assert stats["voq_peak"] == 1
        assert stats["oldest_hol_ts"] == 0
        sw.step([None] * 4, 1)
        stats = sw.harvest_slot_stats()
        assert stats["live_cells"] == 0
        assert stats["residue_cells"] == 0
        assert stats["oldest_hol_ts"] is None

    def test_backends_agree_slot_by_slot(self):
        """Stepping the same hand-written scenario through both backends
        yields identical harvest dicts after every slot."""
        obj, vec = _switch("object"), _switch("vectorized")
        script = [
            [make_packet(0, (0, 1, 2), 0), make_packet(1, (0, 3), 0), None, None],
            [None, None, make_packet(2, (1,), 1), None],
            [make_packet(0, (2, 3), 2), None, None, None],
            [None] * 4,
            [None] * 4,
        ]
        for slot, arrivals in enumerate(script):
            obj.step(list(arrivals), slot)
            vec.step(list(arrivals), slot)
            assert obj.harvest_slot_stats() == vec.harvest_slot_stats(), slot

    def test_base_default_is_empty(self):
        """Backends that don't override the contract opt out via {}."""

        class Stub(KernelBackend):
            admit = schedule = commit = None  # never called
            queue_sizes = total_backlog = None
            check_invariants = state_arrays = None

        Stub.__abstractmethods__ = frozenset()
        assert Stub().harvest_slot_stats() == {}


class TestKernelMetricSeries:
    @pytest.mark.parametrize("backend", ["object", "vectorized"])
    def test_instrumented_run_emits_kernel_series(self, backend):
        tel = Telemetry()
        summary = run_simulation(
            "fifoms", 4, TRAFFIC, num_slots=200, seed=11,
            telemetry=tel, backend=backend,
        )
        labels = {"algorithm": "fifoms"}
        reg = tel.registry
        names = {rec["name"] for rec in reg.to_dict()["metrics"]}
        assert {
            "kernel.live_cells",
            "kernel.residue_cells",
            "kernel.voq_peak",
            "kernel.hol_age",
            "kernel.residue_occupancy",
            "kernel.grants_per_round",
        } <= names
        assert summary.slots_run == 200
        live = reg.gauge("kernel.live_cells", **labels)
        assert live.max >= live.value >= 0
        assert live.max >= 1
        # every grant across every round, totalled
        assert (
            reg.histogram("kernel.grants_per_round", **labels).count
            >= reg.histogram("sim.rounds_per_slot", **labels).count
        )

    def test_backends_emit_identical_registries(self):
        regs = []
        for backend in ("object", "vectorized"):
            tel = Telemetry()
            run_simulation(
                "fifoms", 8, TRAFFIC, num_slots=400, seed=23,
                telemetry=tel, backend=backend,
            )
            regs.append(json.dumps(tel.registry.to_dict(), sort_keys=True))
        assert regs[0] == regs[1]

    def test_switch_without_harvest_gets_no_kernel_series(self, monkeypatch):
        """An empty probe dict disables the kernel block for the run."""
        monkeypatch.setattr(
            MulticastVOQSwitch, "harvest_slot_stats", lambda self: {}
        )
        tel = Telemetry()
        run_simulation(
            "fifoms", 4, TRAFFIC, num_slots=50, seed=5, telemetry=tel
        )
        names = {rec["name"] for rec in tel.registry.to_dict()["metrics"]}
        assert not any(n.startswith("kernel.") for n in names)
        assert "sim.slots" in names
