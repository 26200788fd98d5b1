"""Unit tests for the repro.sanitize runtime sanitizer tier.

Each checker gets a corrupted-input case (fires), a clean case (silent)
and — through the suite tests — the hard-fail / record-mode failure
semantics. Checkers are exercised against small hand-built stubs so each
invariant family is isolated; the end-to-end clean runs live in
tests/test_sanitize_engine.py.
"""

from __future__ import annotations

import pytest

from repro.packet import Packet
from repro.sanitize import (
    SANITIZE_ENV,
    ConservationChecker,
    FifoOrderChecker,
    MatchingValidityChecker,
    RngIsolationChecker,
    RunContext,
    SanitizerError,
    SanitizerSuite,
    StateCrossChecker,
    Violation,
    default_checkers,
    resolve_sanitizer,
    sanitize_mode,
    suite_from_env,
)
from repro.utils.rng import make_rng

from conftest import slot_result


def _packet(src=0, dests=(1,), slot=0):
    return Packet(input_port=src, destinations=tuple(dests), arrival_slot=slot)


class _StubSwitch:
    """Minimal duck-typed switch: just what the cheap checkers read."""

    matching_discipline = "crossbar"
    fifo_per_pair = True
    current_slot = 0

    def __init__(self, backlog=0):
        self._backlog = backlog

    def total_backlog(self):
        return self._backlog


# --------------------------------------------------------------------- #
# Mode parsing / construction helpers
# --------------------------------------------------------------------- #
class TestModeParsing:
    @pytest.mark.parametrize("raw", ["", "0", "off", "OFF", "false", "no", "none"])
    def test_off_spellings(self, raw):
        assert sanitize_mode(raw) == "off"

    @pytest.mark.parametrize("raw", ["2", "hard", "HARD", "fail", "fail-fast"])
    def test_hard_spellings(self, raw):
        assert sanitize_mode(raw) == "hard"

    @pytest.mark.parametrize("raw", ["1", "on", "record", "yes"])
    def test_everything_else_is_record(self, raw):
        assert sanitize_mode(raw) == "record"

    def test_defaults_to_environment(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        assert sanitize_mode() == "off"
        monkeypatch.setenv(SANITIZE_ENV, "1")
        assert sanitize_mode() == "record"

    def test_suite_from_env(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        assert suite_from_env() is None
        monkeypatch.setenv(SANITIZE_ENV, "1")
        suite = suite_from_env()
        assert isinstance(suite, SanitizerSuite) and not suite.hard_fail
        monkeypatch.setenv(SANITIZE_ENV, "hard")
        assert suite_from_env().hard_fail

    def test_resolve_sanitizer(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        assert resolve_sanitizer(False) is None
        assert isinstance(resolve_sanitizer(None), SanitizerSuite)
        assert isinstance(resolve_sanitizer(True), SanitizerSuite)
        suite = SanitizerSuite()
        assert resolve_sanitizer(suite) is suite
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        assert resolve_sanitizer(None) is None
        assert isinstance(resolve_sanitizer(True), SanitizerSuite)


class TestViolationRecord:
    def test_to_dict_schema(self):
        v = Violation(
            checker="conservation",
            slot=7,
            message="broken",
            algorithm="fifoms",
            context=(("offered", 3),),
        )
        assert v.to_dict() == {
            "kind": "sanitizer",
            "checker": "conservation",
            "slot": 7,
            "algorithm": "fifoms",
            "message": "broken",
            "context": {"offered": 3},
        }

    def test_hashable_and_str(self):
        v = Violation(checker="matching", slot=1, message="dup", context=(("output", 2),))
        assert {v} == {v}
        assert str(v) == "[matching] slot 1: dup (output=2)"


# --------------------------------------------------------------------- #
# Checkers
# --------------------------------------------------------------------- #
class TestConservationChecker:
    def test_clean_slot_is_silent(self):
        switch = _StubSwitch(backlog=1)
        ctx = RunContext(switch=switch)
        checker = ConservationChecker()
        # One 2-fanout arrival: 1 cell delivered, 1 still queued.
        pkt = _packet(dests=(0, 1))
        result = slot_result(0, (pkt, 1 << 0))
        assert checker.on_slot(ctx, 0, [pkt], result) == []

    def test_fires_when_cells_vanish(self):
        switch = _StubSwitch(backlog=0)  # nothing queued, nothing delivered
        ctx = RunContext(switch=switch)
        checker = ConservationChecker()
        out = checker.on_slot(ctx, 0, [_packet(dests=(0, 1))], slot_result(0))
        assert [v.checker for v in out] == ["conservation"]
        assert "conservation" in out[0].message

    def test_fires_on_lifetime_counter_drift(self):
        switch = _StubSwitch(backlog=0)
        switch.cells_delivered = 5  # claims deliveries the stream never saw
        ctx = RunContext(switch=switch)
        out = ConservationChecker().on_slot(ctx, 0, [], slot_result(0))
        assert len(out) == 1 and "lifetime" in out[0].message

    def test_fires_on_ledger_drift(self):
        class _Injector:
            def ledger(self):
                return {"grants_lost": 3, "cells_dropped": 0}

        switch = _StubSwitch(backlog=0)
        ctx = RunContext(switch=switch, injector=_Injector())
        out = ConservationChecker().on_slot(ctx, 0, [], slot_result(0))
        assert len(out) == 1 and "grants_lost" in out[0].message


class _FaultState:
    """Stand-in for SlotFaultState with one down output and crosspoint."""

    degraded = True
    failed_crosspoints = frozenset({(1, 2)})

    def input_is_down(self, port):
        return port == 3

    def output_is_down(self, port):
        return port == 0


class TestMatchingValidityChecker:
    def _ctx(self, discipline="crossbar", injector=None):
        switch = _StubSwitch()
        switch.matching_discipline = discipline
        return RunContext(switch=switch, injector=injector)

    def test_clean_multicast_slot(self):
        pkt = _packet(src=0, dests=(1, 2))
        result = slot_result(4, (pkt, 0b110))
        assert MatchingValidityChecker().on_slot(self._ctx(), 4, [], result) == []

    def test_fires_on_output_collision(self):
        a, b = _packet(src=0, dests=(1,)), _packet(src=2, dests=(1,))
        result = slot_result(0, (a, 1 << 1), (b, 1 << 1))
        out = MatchingValidityChecker().on_slot(self._ctx(), 0, [], result)
        assert any("one output" in v.message for v in out)

    def test_fires_on_two_cells_from_one_input(self):
        a, b = _packet(src=0, dests=(1,)), _packet(src=0, dests=(2,))
        result = slot_result(0, (a, 1 << 1), (b, 1 << 2))
        out = MatchingValidityChecker().on_slot(self._ctx(), 0, [], result)
        assert any("distinct data cells" in v.message for v in out)
        # Output-disciplined switches (CICQ, CIOQ, ...) are allowed to.
        assert (
            MatchingValidityChecker().on_slot(self._ctx("output"), 0, [], result)
            == []
        )

    def test_fires_on_foreign_service_slot(self):
        pkt = _packet(src=0, dests=(1,))
        result = slot_result(5, (pkt, 1 << 1))
        out = MatchingValidityChecker().on_slot(self._ctx(), 6, [], result)
        assert any("service slot" in v.message for v in out)
        assert MatchingValidityChecker().on_slot(self._ctx(), 5, [], result) == []

    def test_fires_on_overlapping_masks(self):
        a, b = _packet(src=0, dests=(1, 2)), _packet(src=2, dests=(2, 3))
        result = slot_result(0, (a, 0b0110), (b, 0b1100))
        out = MatchingValidityChecker().on_slot(self._ctx(), 0, [], result)
        assert [(v.message, dict(v.context)) for v in out] == [
            ("two cells delivered to one output in one slot", {"output": 2})
        ]

    def test_fires_on_two_rows_of_one_input(self):
        a, b = _packet(src=1, dests=(0, 1)), _packet(src=1, dests=(2, 3))
        result = slot_result(0, (a, 0b0011), (b, 0b1100))
        out = MatchingValidityChecker().on_slot(self._ctx(), 0, [], result)
        assert [(v.message, dict(v.context)) for v in out] == [
            (
                "input delivered two distinct data cells in one slot "
                "through a crossbar matching",
                {"input": 1, "distinct_cells": 2},
            )
        ]

    def test_fires_on_masked_delivery(self):
        class _Injector:
            current = _FaultState()

        ctx = self._ctx(injector=_Injector())
        pkt = _packet(src=1, dests=(2,))
        down = slot_result(0, (pkt, 1 << 2))
        out = MatchingValidityChecker().on_slot(ctx, 0, [], down)
        assert any("crosspoint" in v.message for v in out)
        pkt2 = _packet(src=3, dests=(4,))
        down2 = slot_result(0, (pkt2, 1 << 0))
        out2 = MatchingValidityChecker().on_slot(ctx, 0, [], down2)
        kinds = " ".join(v.message for v in out2)
        assert "down input" in kinds and "down output" in kinds


class TestFifoOrderChecker:
    def test_fires_when_younger_overtakes(self):
        ctx = RunContext(switch=_StubSwitch())
        checker = FifoOrderChecker()
        old = _packet(src=0, dests=(1,), slot=0)
        young = _packet(src=0, dests=(1,), slot=5)
        checker.on_slot(
            ctx, 6, [], slot_result(6, (young, 1 << 1))
        )
        out = checker.on_slot(
            ctx, 7, [], slot_result(7, (old, 1 << 1))
        )
        assert [v.checker for v in out] == ["fifo_order"]

    def test_in_order_service_is_silent(self):
        ctx = RunContext(switch=_StubSwitch())
        checker = FifoOrderChecker()
        for slot, arrival in [(3, 0), (4, 1), (5, 1)]:
            pkt = _packet(src=0, dests=(1,), slot=arrival)
            result = slot_result(slot, (pkt, 1 << 1))
            assert checker.on_slot(ctx, slot, [], result) == []

    def test_skips_non_fifo_switches(self):
        switch = _StubSwitch()
        switch.fifo_per_pair = False
        ctx = RunContext(switch=switch)
        checker = FifoOrderChecker()
        old = _packet(src=0, dests=(1,), slot=0)
        young = _packet(src=0, dests=(1,), slot=5)
        checker.on_slot(
            ctx, 6, [], slot_result(6, (young, 1 << 1))
        )
        assert checker.on_slot(
            ctx, 7, [], slot_result(7, (old, 1 << 1))
        ) == []


class TestStateCrossChecker:
    def test_consistent_seam_is_silent(self):
        class _Sound(_StubSwitch):
            def check_invariants(self):
                pass

        assert StateCrossChecker().deep_check(RunContext(switch=_Sound()), 9) == []

    def test_converts_invariant_raise_into_violation(self):
        from repro.errors import SchedulingError

        class _Broken(_StubSwitch):
            def check_invariants(self):
                raise SchedulingError("occupancy drift at VOQ (0, 1)")

        out = StateCrossChecker().deep_check(RunContext(switch=_Broken()), 3)
        assert len(out) == 1 and "occupancy drift" in out[0].message
        assert dict(out[0].context)["error"] == "SchedulingError"


class TestRngIsolationChecker:
    def test_independent_streams_are_silent(self):
        ctx = RunContext(
            switch=_StubSwitch(),
            rng_streams=[("scheduler", make_rng(1)), ("traffic", make_rng(2))],
        )
        assert RngIsolationChecker().attach(ctx) == []

    def test_fires_on_aliased_generator(self):
        gen = make_rng(1)
        ctx = RunContext(
            switch=_StubSwitch(), rng_streams=[("scheduler", gen), ("traffic", gen)]
        )
        out = RngIsolationChecker().attach(ctx)
        assert len(out) == 1 and "same generator" in out[0].message

    def test_fires_on_collapsed_state(self):
        ctx = RunContext(
            switch=_StubSwitch(),
            rng_streams=[("scheduler", make_rng(7)), ("traffic", make_rng(7))],
        )
        out = RngIsolationChecker().deep_check(ctx, 5)
        assert len(out) == 1 and "identical" in out[0].message
        assert out[0].slot == 5

    def test_discovers_the_scheduler_stream(self):
        """Schedulers keep their stream as ``_rng``; one seeded like its
        traffic trips the checker at attach. A trace replay draws nothing
        and holds no stream, so the same seed is silent there."""
        from repro.schedulers import make_switch
        from repro.traffic.bernoulli import BernoulliMulticastTraffic
        from repro.traffic.trace import TraceTraffic

        fired = []
        for traffic in (
            BernoulliMulticastTraffic(2, p=0.5, b=0.5, rng=0),
            TraceTraffic(2, []),
        ):
            suite = SanitizerSuite(fail_at_finish=False)
            suite.attach(make_switch("fifoms", 2, rng=0), traffic=traffic)
            fired.append([v.checker for v in suite.violations])
        assert fired == [["rng_isolation"], []]


# --------------------------------------------------------------------- #
# Suite semantics
# --------------------------------------------------------------------- #
class _AlwaysFires(ConservationChecker):
    name = "always"

    def on_slot(self, ctx, slot, arrivals, result):
        return [self.violation(ctx, slot, "synthetic violation")]


class TestSanitizerSuite:
    def _attached(self, **kwargs):
        suite = SanitizerSuite(checkers=[_AlwaysFires()], **kwargs)
        suite.attach(_StubSwitch(), algorithm="stub")
        return suite

    def test_default_catalog(self):
        names = [c.name for c in default_checkers()]
        assert names == [
            "conservation",
            "matching",
            "fifo_order",
            "state_cross",
            "rng_isolation",
        ]
        assert [c.name for c in SanitizerSuite().checkers] == names

    def test_hard_fail_raises_on_first_violation(self):
        suite = self._attached(hard_fail=True)
        with pytest.raises(SanitizerError, match="synthetic violation"):
            suite.on_slot(0, [], slot_result(0))

    def test_record_mode_collects_then_fails_at_finish(self):
        suite = self._attached()
        for slot in range(3):
            suite.on_slot(slot, [], slot_result(slot))
        assert len(suite.violations) == 3 and not suite.ok
        with pytest.raises(SanitizerError, match="3 violation"):
            suite.finish()

    def test_observer_mode_never_raises(self):
        suite = self._attached(fail_at_finish=False)
        suite.on_slot(0, [], slot_result(0))
        suite.finish()
        assert len(suite.violations) == 1

    def test_max_violations_caps_memory(self):
        suite = self._attached(fail_at_finish=False, max_violations=2)
        for slot in range(5):
            suite.on_slot(slot, [], slot_result(slot))
        assert len(suite.violations) == 2
        assert suite.slots_checked == 5

    def test_sink_receives_structured_records(self):
        emitted = []

        class _Sink:
            def emit(self, record):
                emitted.append(record)

        suite = SanitizerSuite(
            checkers=[_AlwaysFires()], fail_at_finish=False, sink=_Sink()
        )
        suite.attach(_StubSwitch(), algorithm="stub")
        suite.on_slot(0, [], slot_result(0))
        assert emitted and emitted[0]["kind"] == "sanitizer"
        assert emitted[0]["algorithm"] == "stub"

    def test_on_slot_before_attach_raises(self):
        with pytest.raises(SanitizerError, match="attach"):
            SanitizerSuite().on_slot(0, [], slot_result(0))

    def test_deep_every_cadence(self):
        suite = SanitizerSuite(checkers=[], deep_every=4)
        suite.attach(_StubSwitch())
        for slot in range(8):
            suite.on_slot(slot, [], slot_result(slot))
        assert suite.deep_passes == 2

    def test_report_schema(self):
        suite = self._attached(fail_at_finish=False)
        suite.on_slot(0, [], slot_result(0))
        report = suite.report()
        assert report["enabled"] is True
        assert report["checkers"] == ["always"]
        assert report["violations"][0]["message"] == "synthetic violation"
