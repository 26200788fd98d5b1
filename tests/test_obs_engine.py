"""Engine-level telemetry: guard on the disabled path, metrics/profile
content, progress heartbeats, and cross-process sweep aggregation."""

from __future__ import annotations

import dataclasses
import io
import itertools

import pytest

import repro.obs.profiler as profiler_mod
import repro.obs.telemetry as telemetry_mod
import repro.sim.engine as engine_mod
from repro.core.fifoms import FIFOMSScheduler, TieBreak
from repro.experiments import get_figure, run_figure
from repro.obs import (
    ProgressReporter,
    SlotTracer,
    Telemetry,
    aggregate_telemetry,
)
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.runner import run_simulation
from repro.switch.voq_multicast import MulticastVOQSwitch
from repro.traffic.trace import TraceTraffic

from conftest import make_packet

TINY_PACKETS = [
    make_packet(0, (0, 1), 0),
    make_packet(1, (1, 2), 0),
    make_packet(2, (3,), 0),
    make_packet(0, (2,), 1),
    make_packet(3, (0, 1, 2, 3), 1),
]

TRAFFIC = {"model": "bernoulli", "p": 0.3, "b": 0.3}


def _tiny_engine(telemetry=None):
    switch = MulticastVOQSwitch(
        4, FIFOMSScheduler(4, tie_break=TieBreak.LOWEST_INPUT)
    )
    cfg = SimulationConfig(
        num_slots=6, warmup_fraction=0.0, stability_window=0
    )
    return SimulationEngine(
        switch, TraceTraffic(4, TINY_PACKETS), cfg, telemetry=telemetry
    )


class TestDisabledPathGuard:
    def test_zero_telemetry_calls_without_telemetry(self, monkeypatch):
        """With ``telemetry=None`` the engine must never touch telemetry
        code: no record building, no clock reads, no slot observer."""
        calls: list[str] = []
        monkeypatch.setattr(
            telemetry_mod,
            "build_slot_record",
            lambda *a, **k: calls.append("trace"),
        )
        monkeypatch.setattr(
            profiler_mod,
            "clock_ns",
            lambda: calls.append("perf") or 0,
        )
        monkeypatch.setattr(
            engine_mod,
            "SlotObserver",
            lambda *a, **k: calls.append("observer"),
        )
        summary = _tiny_engine(telemetry=None).run()
        assert calls == []
        assert summary.telemetry is None
        assert summary.cells_delivered == 10

    def test_guard_hooks_fire_with_telemetry(self, monkeypatch):
        """The guard above watches the right names: a profiled, traced
        run goes through both."""
        calls: set[str] = set()
        real_record = telemetry_mod.build_slot_record
        real_clock = profiler_mod.clock_ns
        monkeypatch.setattr(
            telemetry_mod,
            "build_slot_record",
            lambda *a: calls.add("trace") or real_record(*a),
        )
        monkeypatch.setattr(
            profiler_mod,
            "clock_ns",
            lambda: calls.add("perf") or real_clock(),
        )
        tel = Telemetry(tracer=SlotTracer(io.StringIO()), profile=True)
        _tiny_engine(telemetry=tel).run()
        assert calls == {"trace", "perf"}

    def test_telemetry_does_not_perturb_results(self):
        """Instrumentation observes; it must not change a single number."""
        plain = run_simulation("fifoms", 8, TRAFFIC, num_slots=600, seed=42)
        observed = run_simulation(
            "fifoms", 8, TRAFFIC, num_slots=600, seed=42,
            collect_telemetry=True,
        )
        assert observed.telemetry is not None
        for f in dataclasses.fields(plain):
            if f.name == "telemetry":
                continue
            assert getattr(plain, f.name) == getattr(observed, f.name), f.name


class TestInstrumentedRun:
    def test_registry_counters_match_run(self):
        tel = Telemetry()
        summary = _tiny_engine(telemetry=tel).run()
        labels = {"algorithm": summary.algorithm}
        reg = tel.registry
        assert reg.counter("sim.slots", **labels).value == 6
        # warmup_fraction=0 -> the stats numerators match the raw counters
        assert (
            reg.counter("sim.cells_offered", **labels).value
            == summary.cells_offered
            == 10
        )
        assert (
            reg.counter("sim.cells_delivered", **labels).value
            == summary.cells_delivered
            == 10
        )
        # every packet's data cell is eventually reclaimed
        assert (
            reg.counter("sim.buffer_reclamations", **labels).value
            == len(TINY_PACKETS)
        )
        assert reg.gauge("sim.backlog", **labels).value == 0  # drained
        assert reg.gauge("sim.backlog", **labels).max >= 1
        assert reg.histogram("sim.rounds_per_slot", **labels).count == 3

    def test_summary_telemetry_section_is_plain_data(self):
        """The section must survive JSON (i.e. pickle across workers)."""
        import json

        tel = Telemetry(profile=True)
        summary = _tiny_engine(telemetry=tel).run()
        section = json.loads(json.dumps(summary.telemetry))
        assert {"metrics", "profile"} <= set(section)

    def test_profiler_phase_breakdown(self):
        tel = Telemetry(profile=True)
        summary = run_simulation(
            "fifoms", 4, TRAFFIC, num_slots=300, seed=7, telemetry=tel
        )
        report = tel.profiler.report(summary.slots_run)
        assert list(report["phases"]) == [
            "traffic_gen", "schedule", "stats", "invariants"
        ]
        shares = [p["share"] for p in report["phases"].values()]
        assert sum(shares) == pytest.approx(1.0)
        assert report["total_ms"] > 0
        assert report["slots"] == 300
        assert report["slots_per_sec"] > 0
        for entry in report["phases"].values():
            assert entry["per_slot_us"] >= 0

    def test_traffic_prefetch_is_charged_to_traffic_gen(self, monkeypatch):
        """Bernoulli traffic is drawn one window per ``next_slots`` call
        (it never calls ``next_slot`` under the engine): the profiler
        times that call. With a clock that ticks once per read, every
        timed call costs one tick, so ``traffic_gen`` counts the windows:
        300 slots in 64-slot windows cut at the 100-slot stability
        windows are six calls."""
        monkeypatch.setattr(profiler_mod, "clock_ns", itertools.count().__next__)
        tel = Telemetry(profile=True)
        summary = run_simulation(
            "fifoms", 4, TRAFFIC, num_slots=300, seed=7, telemetry=tel
        )
        report = tel.profiler.report(summary.slots_run)
        assert list(report["phases"]) == [
            "traffic_gen", "schedule", "stats", "invariants"
        ]
        assert tel.profiler.total_ns("traffic_gen") == 6

    def test_sanitizer_is_charged_to_invariants(self, monkeypatch):
        """A profiled, sanitized run times the sanitizer's per-slot call
        under ``invariants``. With a clock that ticks once per read, every
        timed call costs exactly one tick, so sanitizing adds one tick per
        slot to that phase and nothing anywhere else."""

        def phase_ticks(sanitize):
            monkeypatch.setattr(profiler_mod, "clock_ns", itertools.count().__next__)
            tel = Telemetry(profile=True)
            run_simulation(
                "fifoms", 4, TRAFFIC, num_slots=300, seed=7,
                telemetry=tel, sanitize=sanitize,
            )
            return {phase: tel.profiler.total_ns(phase) for phase in profiler_mod.PHASES}

        sanitized, plain = phase_ticks(True), phase_ticks(False)
        assert sanitized["invariants"] - plain["invariants"] == 300
        assert {p: sanitized[p] - plain[p] for p in plain} == {
            "traffic_gen": 0, "schedule": 0, "stats": 0, "invariants": 300
        }

    def test_progress_heartbeat_lines(self):
        buf = io.StringIO()
        progress = ProgressReporter(every=2, total=6, stream=buf)
        _tiny_engine(telemetry=Telemetry(progress=progress)).run()
        lines = buf.getvalue().splitlines()
        assert len(lines) == 3  # slots 2, 4, 6 (finish folded into slot 6)
        assert lines[0].startswith("[progress] slot 2/6 (33.3%)")
        assert "backlog=" in lines[0]
        assert "slots/s" in lines[-1]

    def test_quiet_progress_prints_nothing(self):
        buf = io.StringIO()
        progress = ProgressReporter(every=1, stream=buf, quiet=True)
        _tiny_engine(telemetry=Telemetry(progress=progress)).run()
        assert buf.getvalue() == ""


class TestSweepAggregation:
    def test_two_worker_sweep_merges_registries(self):
        """Each pool worker ships its registry home inside the summary;
        the parent folds them into one aggregate."""
        result = run_figure(
            get_figure("fig5"),
            num_slots=400,
            seed=3,
            loads=[0.2, 0.3],
            algorithms=["fifoms"],
            workers=2,
            collect_telemetry=True,
        )
        summaries = result.all_summaries()
        assert len(summaries) == 2
        assert all(s.telemetry is not None for s in summaries)
        reg = aggregate_telemetry(summaries)
        # two points x 400 slots under one label -> counters add up
        assert reg.counter("sim.slots", algorithm="fifoms").value == 800
        delivered = sum(
            rec["value"]
            for s in summaries
            for rec in s.telemetry["metrics"]["metrics"]
            if rec["name"] == "sim.cells_delivered"
        )
        assert (
            reg.counter("sim.cells_delivered", algorithm="fifoms").value
            == delivered
        )

    def test_aggregate_skips_summaries_without_telemetry(self):
        plain = run_simulation("fifoms", 4, TRAFFIC, num_slots=200, seed=1)
        assert len(aggregate_telemetry([plain])) == 0
