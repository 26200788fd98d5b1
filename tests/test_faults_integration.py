"""End-to-end fault injection: degradation, recovery, determinism.

The acceptance scenario of the robustness work: a 16x16 FIFOMS run with a
mid-simulation single-output outage must complete without an exception,
report nonzero outage slots and a recovered throughput, and be
bit-identical across two same-seed runs.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError, FabricConflictError
from repro.fabric.crossbar import MulticastCrossbar
from repro.faults import (
    CellDropModel,
    CrosspointFailure,
    CrosspointOutage,
    FaultInjector,
    GrantLossModel,
    LinkDownSchedule,
    PortOutage,
)
from repro.schedulers.registry import make_switch
from repro.sim.runner import run_simulation
from repro.sim.stability import StabilityMonitor
from repro.utils.rng import RngStreams

SPEC = {"model": "bernoulli", "p": 0.3, "b": 0.125}  # ~0.6 load at N=16


def run16(faults, *, seed=7, slots=6000, **kw):
    """One 16x16 FIFOMS run with the given fault scenario."""
    return run_simulation(
        "fifoms", 16, SPEC, num_slots=slots, seed=seed, faults=faults, **kw
    )


class TestOutageAcceptance:
    def test_mid_run_outage_completes_and_recovers(self):
        s = run16("output-outage")
        assert s.slots_run == 6000
        assert not s.unstable
        assert s.faults is not None
        assert s.faults["outage_slots"] > 0
        assert s.faults["recovered"] is True
        # Recovered throughput: the switch still carries the offered load
        # over the whole run (the backlog built during the outage drains).
        assert s.carried_load > 0.9 * s.offered_load

    def test_different_seeds_differ(self):
        a = run16("chaos", seed=1, slots=3000)
        b = run16("chaos", seed=2, slots=3000)
        assert a.to_json() != b.to_json()

    def test_healthy_run_reports_no_faults(self):
        s = run_simulation("fifoms", 8, SPEC, num_slots=2000, seed=0)
        assert s.faults is None
        assert s.cells_dropped == 0
        assert s.packets_dropped == 0
        assert s.grants_lost == 0

    def test_input_outage_drops_arrivals(self):
        s = run_simulation(
            "fifoms", 8, SPEC, num_slots=4000, seed=3, faults="input-outage"
        )
        assert s.slots_run == 4000
        assert s.packets_dropped > 0
        assert s.cells_dropped >= s.packets_dropped
        assert s.faults["packets_dropped"] == s.packets_dropped

    def test_grant_loss_retries_conserve_cells(self):
        # Lost grants leave the address cells queued: nothing disappears,
        # so the engine's conservation audit passes and the loss ledger
        # counts only corrupted branches, not lost cells.
        s = run_simulation(
            "fifoms", 8, SPEC, num_slots=4000, seed=3, faults="grant-glitch"
        )
        assert s.grants_lost > 0
        assert s.cells_dropped == 0

    def test_chaos_counts_everything(self):
        s = run16("chaos")
        assert s.slots_run == 6000
        assert s.grants_lost > 0
        assert s.packets_dropped > 0
        assert s.faults["degraded_slots"] > 0

    def test_telemetry_does_not_perturb_fault_runs(self):
        plain = run16("chaos", slots=3000)
        observed = run16("chaos", slots=3000, collect_telemetry=True)
        for f in dataclasses.fields(plain):
            if f.name == "telemetry":
                continue
            assert getattr(plain, f.name) == getattr(observed, f.name), f.name


class TestFaultInjectorWiring:
    def test_prebuilt_injector_accepted(self):
        inj = FaultInjector(
            8,
            link_down=LinkDownSchedule([PortOutage(port=0, start=100, end=300)]),
            rng=RngStreams(3),
        )
        s = run_simulation(
            "fifoms", 8, SPEC, num_slots=1000, seed=3, faults=inj
        )
        assert s.faults["outage_slots"] == 200

    def test_unsupported_switch_rejected(self):
        # TATRA rides the single-input-queue switch, which has no
        # fault_injector seam; asking for faults must fail loudly, not
        # silently run healthy.
        with pytest.raises(ConfigurationError):
            run_simulation(
                "tatra", 8, SPEC, num_slots=500, seed=0, faults="output-outage"
            )

    def test_spec_dict_accepted(self):
        s = run_simulation(
            "fifoms",
            4,
            SPEC,
            num_slots=1000,
            seed=5,
            faults={"cell_drop": {"probability": 0.5}},
        )
        assert s.packets_dropped > 0


class TestCrossbarFaultMask:
    def test_configure_refuses_failed_crosspoint(self):
        xbar = MulticastCrossbar(4)
        xbar.set_crosspoint_faults({(1, 2)})
        decision = ScheduleDecision()
        decision.add(1, (2, 3))
        with pytest.raises(FabricConflictError, match=r"crosspoint \(1, 2\)"):
            xbar.configure(decision)

    def test_partial_mask_allows_other_paths(self):
        xbar = MulticastCrossbar(4)
        xbar.set_crosspoint_faults({(1, 2)})
        decision = ScheduleDecision()
        decision.add(1, (0, 3))
        decision.add(0, (2,))  # output 2 via a healthy crosspoint is fine
        cfg = xbar.configure(decision)
        assert cfg.outputs_of(1) == (0, 3)
        assert cfg.driver[2] == 0

    def test_mask_clears(self):
        xbar = MulticastCrossbar(4)
        xbar.set_crosspoint_faults({(0, 0)})
        xbar.set_crosspoint_faults(())
        decision = ScheduleDecision()
        decision.add(0, (0,))
        xbar.configure(decision)  # must not raise

    def test_mask_validates_indices(self):
        xbar = MulticastCrossbar(4)
        with pytest.raises(ConfigurationError):
            xbar.set_crosspoint_faults({(0, 9)})

    def test_flaky_crosspoint_scenario_never_configures_failed_path(self):
        # Defence in depth end-to-end: the switch prunes decisions before
        # the crossbar sees them, so a whole run under crosspoint faults
        # never trips FabricConflictError.
        s = run_simulation(
            "fifoms", 8, SPEC, num_slots=3000, seed=11, faults="flaky-crosspoint"
        )
        assert s.slots_run == 3000
        assert s.faults["grants_blocked"] > 0


class TestDropTailBuffer:
    def test_drop_tail_counts_instead_of_raising(self):
        s = run_simulation(
            "fifoms",
            4,
            {"model": "bernoulli", "p": 0.9, "b": 0.9},
            num_slots=800,
            seed=1,
            buffer_capacity=4,
            buffer_overflow="drop",
        )
        assert s.slots_run == 800
        assert s.packets_dropped > 0

    def test_raise_policy_still_default(self):
        from repro.errors import BufferError_

        with pytest.raises(BufferError_):
            run_simulation(
                "fifoms",
                4,
                {"model": "bernoulli", "p": 0.9, "b": 0.9},
                num_slots=800,
                seed=1,
                buffer_capacity=4,
            )

    def test_invalid_policy_rejected(self):
        """The refusal names the parameter the caller passed, on
        production and on the reference kernel."""
        for backend in ("vectorized", "object"):
            with pytest.raises(ConfigurationError, match="buffer_overflow must be"):
                make_switch(
                    "fifoms", 4, backend=backend,
                    buffer_capacity=4, buffer_overflow="explode",
                )


class TestDegradedStability:
    def test_observe_degraded_resets_growth_streak(self):
        m = StabilityMonitor(growth_windows=3)
        m.observe(1)
        m.observe(2)
        assert not m.observe_degraded(3)
        assert not m.observe_degraded(4)
        assert not m.observe_degraded(5)
        # Streak restarted: three more growing samples are needed again.
        assert not m.observe(6)
        assert not m.observe(7)
        assert not m.observe(8)
        assert m.observe(9)

    def test_observe_degraded_keeps_ceiling(self):
        m = StabilityMonitor(max_backlog=10)
        assert m.observe_degraded(11)
        assert "degraded" in m.reason

    def test_outage_backlog_ramp_not_misread_as_saturation(self):
        # A permanent crosspoint failure ramps backlog forever; the run
        # must still complete (degraded, not supercritical).
        inj = FaultInjector(
            4,
            crosspoints=CrosspointFailure([CrosspointOutage(0, 0)]),
            rng=RngStreams(2),
        )
        s = run_simulation(
            "fifoms", 4, SPEC, num_slots=3000, seed=2, faults=inj
        )
        assert s.slots_run == 3000
        assert not s.unstable


class TestStochasticFaultDeterminism:
    def test_cell_drop_model_gated_by_injector_state(self):
        inj = FaultInjector(
            4, cell_drop=CellDropModel(probability=1.0, start=10, end=20),
            rng=RngStreams(0),
        )
        s = run_simulation("fifoms", 4, SPEC, num_slots=100, seed=0, faults=inj)
        assert 0 < s.packets_dropped
        assert inj.report()["slots_advanced"] == 100

    def test_grant_loss_only_counts_surviving_branches(self):
        # A branch blocked by a down output must not also roll the
        # grant-loss dice: blocked and lost are disjoint counts.
        inj = FaultInjector(
            4,
            link_down=LinkDownSchedule([PortOutage(port=0, start=0)]),
            grant_loss=GrantLossModel(probability=1.0),
            rng=RngStreams(0),
        )
        st = inj.advance(0)
        decision = ScheduleDecision()
        decision.add(1, (0, 2))
        pruned, lost = inj.filter_decision(st, decision)
        assert not pruned.grants  # 0 blocked, 2 lost
        assert inj.grants_blocked == 1
        assert inj.grants_lost == 1
        assert lost == 1
