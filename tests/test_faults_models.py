"""Unit tests for repro.faults: models, scenarios and the injector."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError
from repro.faults import (
    CellDropModel,
    CrosspointFailure,
    CrosspointOutage,
    FaultInjector,
    GrantLossModel,
    LinkDownSchedule,
    PortOutage,
    available_fault_scenarios,
    build_fault_injector,
    scenario_spec,
)
from repro.utils.rng import RngStreams

from conftest import make_packet


class TestPortOutage:
    def test_window_semantics(self):
        o = PortOutage(port=2, start=10, end=20)
        assert not o.active(9)
        assert o.active(10)
        assert o.active(19)
        assert not o.active(20)

    def test_permanent(self):
        o = PortOutage(port=0, start=5, end=None)
        assert o.active(10**9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"port": -1, "start": 0},
            {"port": 0, "start": -1},
            {"port": 0, "start": 5, "end": 5},
            {"port": 0, "start": 5, "end": 4},
            {"port": 0, "start": 0, "kind": "sideways"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            PortOutage(**kwargs)


class TestLinkDownSchedule:
    def test_down_sets_are_sorted_and_kinded(self):
        sched = LinkDownSchedule(
            [
                PortOutage(port=3, start=0, end=10, kind="output"),
                PortOutage(port=1, start=0, end=10, kind="output"),
                PortOutage(port=2, start=0, end=10, kind="input"),
            ]
        )
        assert sched.down_outputs(5) == (1, 3)
        assert sched.down_inputs(5) == (2,)
        assert sched.down_outputs(10) == ()
        assert sched.any_active(5) and not sched.any_active(10)

    def test_last_end_and_max_port(self):
        sched = LinkDownSchedule(
            [PortOutage(port=1, start=0, end=10), PortOutage(port=4, start=5, end=30)]
        )
        assert sched.last_end() == 30
        assert sched.max_port() == 4
        permanent = LinkDownSchedule([PortOutage(port=0, start=0, end=None)])
        assert permanent.last_end() is None
        assert LinkDownSchedule([]).last_end() is None

    def test_rejects_non_outage(self):
        with pytest.raises(ConfigurationError):
            LinkDownSchedule([object()])


class TestCrosspointFailure:
    def test_failed_pairs_windowed(self):
        cf = CrosspointFailure(
            [
                CrosspointOutage(0, 0),
                CrosspointOutage(1, 2, start=10, end=20),
            ]
        )
        assert cf.failed_pairs(0) == frozenset({(0, 0)})
        assert cf.failed_pairs(15) == frozenset({(0, 0), (1, 2)})
        assert cf.max_input() == 1 and cf.max_output() == 2

    def test_invalid_indices(self):
        with pytest.raises(ConfigurationError):
            CrosspointOutage(-1, 0)


class TestStochasticModels:
    def test_grant_loss_window_gates_draws(self):
        glm = GrantLossModel(probability=1.0, start=10, end=20)
        rng = np.random.default_rng(0)
        assert not glm.lose(9, rng)
        assert glm.lose(10, rng)
        assert not glm.lose(20, rng)

    def test_cell_drop_port_filter(self):
        cdm = CellDropModel(probability=1.0, input_ports=(1, 3))
        rng = np.random.default_rng(0)
        assert not cdm.drop(0, 0, rng)
        assert cdm.drop(0, 1, rng)
        assert cdm.drop(0, 3, rng)

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_probability_validated(self, p):
        with pytest.raises(ConfigurationError):
            GrantLossModel(probability=p)
        with pytest.raises(ConfigurationError):
            CellDropModel(probability=p)


class TestFaultInjector:
    def test_port_indices_validated_against_n(self):
        with pytest.raises(ConfigurationError):
            FaultInjector(
                4, link_down=LinkDownSchedule([PortOutage(port=4, start=0)])
            )
        with pytest.raises(ConfigurationError):
            FaultInjector(4, crosspoints=CrosspointFailure([CrosspointOutage(0, 7)]))

    def test_advance_is_idempotent_per_slot(self):
        inj = FaultInjector(
            4, link_down=LinkDownSchedule([PortOutage(port=0, start=0, end=5)])
        )
        s1 = inj.advance(0)
        s2 = inj.advance(0)
        assert s1 is s2
        assert inj.slots_advanced == 1
        assert inj.outage_slots == 1

    def test_state_masks(self):
        inj = FaultInjector(
            4,
            link_down=LinkDownSchedule(
                [
                    PortOutage(port=1, start=0, end=10, kind="output"),
                    PortOutage(port=2, start=0, end=10, kind="input"),
                ]
            ),
        )
        st = inj.advance(3)
        assert st.output_up == (True, False, True, True)
        assert st.input_up == (True, True, False, True)
        assert st.output_is_down(1) and not st.output_is_down(0)
        assert st.input_is_down(2)
        assert st.has_port_outage and st.degraded
        healthy = inj.advance(10)
        assert healthy.output_up is None and healthy.input_up is None
        assert not healthy.degraded

    def test_drop_arrival_counts_ledger(self):
        inj = FaultInjector(
            2, link_down=LinkDownSchedule([PortOutage(port=0, start=0, kind="input")])
        )
        st = inj.advance(0)
        assert inj.drop_arrival(st, make_packet(0, (0, 1)))
        assert not inj.drop_arrival(st, make_packet(1, (0,)))
        assert inj.packets_dropped == 1
        assert inj.cells_dropped == 2

    def test_filter_decision_prunes_down_output(self):
        inj = FaultInjector(
            3, link_down=LinkDownSchedule([PortOutage(port=1, start=0, kind="output")])
        )
        st = inj.advance(0)
        decision = ScheduleDecision()
        decision.add(0, (0, 1))
        decision.add(2, (2,))
        pruned, lost = inj.filter_decision(st, decision)
        assert lost == 0
        assert pruned.grants[0].output_ports == (0,)
        assert pruned.grants[2].output_ports == (2,)
        assert inj.grants_blocked == 1

    def test_filter_decision_prunes_failed_crosspoint(self):
        inj = FaultInjector(
            3, crosspoints=CrosspointFailure([CrosspointOutage(0, 0)])
        )
        st = inj.advance(0)
        decision = ScheduleDecision()
        decision.add(0, (0, 2))
        pruned, _lost = inj.filter_decision(st, decision)
        assert pruned.grants[0].output_ports == (2,)

    def test_filter_decision_grant_loss_all(self):
        inj = FaultInjector(2, grant_loss=GrantLossModel(probability=1.0))
        st = inj.advance(0)
        decision = ScheduleDecision()
        decision.add(0, (0,))
        decision.add(1, (1,))
        pruned, lost = inj.filter_decision(st, decision)
        assert lost == 2
        assert not pruned.grants
        assert inj.grants_lost == 2

    def test_filter_decision_untouched_when_healthy(self):
        inj = FaultInjector(2, grant_loss=GrantLossModel(probability=0.5, start=100))
        st = inj.advance(0)
        decision = ScheduleDecision()
        decision.add(0, (0,))
        pruned, lost = inj.filter_decision(st, decision)
        assert pruned is decision and lost == 0

    def test_recovery_slot(self):
        inj = FaultInjector(
            4,
            link_down=LinkDownSchedule([PortOutage(port=0, start=0, end=50)]),
            crosspoints=CrosspointFailure([CrosspointOutage(1, 1, start=0, end=80)]),
        )
        assert inj.recovery_slot == 80
        permanent = FaultInjector(
            4, link_down=LinkDownSchedule([PortOutage(port=0, start=0)])
        )
        assert permanent.recovery_slot is None
        assert FaultInjector(4, grant_loss=GrantLossModel(0.1)).recovery_slot is None

    def test_report_shape(self):
        inj = FaultInjector(
            4, link_down=LinkDownSchedule([PortOutage(port=0, start=0, end=2)])
        )
        for slot in range(4):
            inj.advance(slot)
        rep = inj.report()
        assert rep["outage_slots"] == 2
        assert rep["recovery_slot"] == 2
        assert rep["recovered"] is True
        import json

        json.dumps(rep)  # must stay JSON-serializable

    def test_named_streams_isolated_from_root(self):
        # Same seed, with and without an unrelated extra model: the
        # grant-loss stream must draw identically (independent streams).
        def lost_after(inj: FaultInjector) -> int:
            st = inj.advance(0)
            for _ in range(50):
                d = ScheduleDecision()
                d.add(0, (0,))
                inj.filter_decision(st, d)
            return inj.grants_lost

        a = FaultInjector(2, grant_loss=GrantLossModel(0.3), rng=RngStreams(9))
        b = FaultInjector(
            2,
            grant_loss=GrantLossModel(0.3),
            cell_drop=CellDropModel(0.5),
            rng=RngStreams(9),
        )
        assert lost_after(a) == lost_after(b)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
#: Values near the ones a spec holds, so draws reach every field check.
_VALUE = st.one_of(
    st.integers(-2, 9), st.floats(-0.5, 1.5), st.none(),
    st.sampled_from(["output", "input", "x"]),
    st.lists(st.integers(-1, 9), max_size=3), _JSON,
)
_ENTRY = st.dictionaries(
    st.sampled_from(
        ["port", "kind", "start", "end", "input", "output", "probability",
         "input_ports"]
    ),
    _VALUE,
    max_size=5,
)
_SPEC = st.dictionaries(
    st.sampled_from(["link_down", "crosspoints", "grant_loss", "cell_drop"])
    | st.text(max_size=4),
    st.lists(_ENTRY, max_size=3) | _ENTRY | _JSON,
    max_size=4,
)


class TestScenarios:
    def test_catalog_builds_for_various_sizes(self):
        for name in available_fault_scenarios():
            for n in (1, 2, 3, 4, 8, 16, 70, 256):
                inj = build_fault_injector(
                    name, num_ports=n, num_slots=1000, rng=RngStreams(0)
                )
                inj.advance(0)

    def test_fractional_windows_scale_with_run(self):
        inj = build_fault_injector(
            {"link_down": [{"port": 0, "start": 0.4, "end": 0.6}]},
            num_ports=4,
            num_slots=1000,
            rng=RngStreams(0),
        )
        assert not inj.advance(399).has_port_outage
        assert inj.advance(400).has_port_outage
        assert inj.advance(599).has_port_outage
        assert not inj.advance(600).has_port_outage

    def test_scenario_spec_exposes_dict(self):
        spec = scenario_spec("output-outage", 16)
        assert spec["link_down"][0]["port"] == 0

    @pytest.mark.parametrize(
        "bad",
        [
            "no-such-scenario",
            {"unknown_key": 1},
            {},
            {"link_down": []},
            42,
            {"link_down": [{}]},
            {"crosspoints": [{"input": 0}]},
            {"link_down": [{"port": "x"}]},
            {"grant_loss": {"probability": "hi"}},
            {"link_down": {"port": 1}},
            {"grant_loss": 5},
            {"cell_drop": {"probability": 0.1, "input_ports": [99]}},
            {"cell_drop": {"probability": 0.1, "input_ports": []}},
        ],
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            build_fault_injector(bad, num_ports=4, num_slots=100, rng=RngStreams(0))

    @settings(max_examples=400, deadline=None)
    @given(spec=_SPEC, n=st.integers(1, 8), slots=st.integers(1, 300))
    def test_json_specs_build_or_raise_configuration_error(self, spec, n, slots):
        """A spec read from outside the program either builds an
        injector whose every named port exists, or is refused with
        ConfigurationError; no other exception escapes."""
        try:
            inj = build_fault_injector(
                spec, num_ports=n, num_slots=slots, rng=RngStreams(0)
            )
        except ConfigurationError:
            return
        for slot in (0, slots // 2, slots):
            inj.advance(slot)
        if inj.cell_drop is not None and inj.cell_drop.input_ports is not None:
            assert max(inj.cell_drop.input_ports) < n

    def test_fraction_out_of_range(self):
        with pytest.raises(ConfigurationError):
            build_fault_injector(
                {"link_down": [{"port": 0, "start": 1.5}]},
                num_ports=4,
                num_slots=100,
                rng=RngStreams(0),
            )
