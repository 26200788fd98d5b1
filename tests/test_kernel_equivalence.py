"""Tests for repro.kernel.equivalence (backend bit-exactness harness)."""

from __future__ import annotations

import pytest

from repro.kernel.equivalence import (
    EquivalenceCase,
    RecordingSwitch,
    default_grid,
    main,
    run_case,
    single_bodied_pairings,
    slot_digest,
)
from repro.packet import Delivery, Packet
from repro.switch.base import SlotResult


class TestSlotDigest:
    def test_delivery_order_is_canonicalized(self):
        p1 = Packet(input_port=0, destinations=(1,), arrival_slot=3)
        p2 = Packet(input_port=2, destinations=(1,), arrival_slot=1)
        a = SlotResult(slot=5, rounds=2, requests_made=True)
        a.deliveries = [
            Delivery(packet=p1, output_port=1, service_slot=5),
            Delivery(packet=p2, output_port=0, service_slot=5),
        ]
        b = SlotResult(slot=5, rounds=2, requests_made=True)
        b.deliveries = list(reversed(a.deliveries))
        assert slot_digest(a) == slot_digest(b)

    def test_digest_sees_every_counter(self):
        base = SlotResult(slot=0)
        for field, value in [
            ("rounds", 3),
            ("splits", 1),
            ("reclaimed", 2),
            ("grants_lost", 1),
            ("requests_made", True),
            ("round_grants", (2, 1)),
        ]:
            other = SlotResult(slot=0)
            setattr(other, field, value)
            assert slot_digest(other) != slot_digest(base)


class TestRecordingSwitch:
    class _Stub:
        num_ports = 4
        answered = None

        def step(self, arrivals, slot):
            return SlotResult(slot=slot)

    def test_records_and_forwards(self):
        stub = self._Stub()
        proxy = RecordingSwitch(stub)
        assert proxy.num_ports == 4
        proxy.answered = "yes"  # attribute write lands on the stub
        assert stub.answered == "yes"
        proxy.step([None] * 4, 0)
        proxy.step([None] * 4, 1)
        assert len(proxy.digests) == 2
        assert proxy.digests[0][0] == 0 and proxy.digests[1][0] == 1


class TestGrid:
    def test_grid_generated_from_registry(self):
        """Every registry pairing is either in the grid (twice: two
        traffic models) or single-bodied (nothing to compare;
        golden-pinned) — no pairing can silently drop out of the
        claim."""
        from repro.schedulers.registry import available_schedulers

        grid = default_grid()
        skipped = set(single_bodied_pairings())
        covered = {c.algorithm for c in grid}
        for name in available_schedulers():
            if name in skipped:
                assert name not in covered
            else:
                assert (
                    sum(1 for c in grid if c.algorithm == name) >= 2
                ), f"{name} underrepresented in the grid"
        assert {c.traffic["model"] for c in grid} == {"bernoulli", "burst"}
        assert sum(1 for c in grid if c.fault is not None) == 1

    def test_tatra_skip_carries_declared_reason(self):
        """TATRA is not a refusal with a reason any more (the id predates
        that) but one of the single-bodied pairings: the same class
        under every registered name, an unregistered one still refused."""
        from repro.errors import ConfigurationError
        from repro.schedulers.registry import make_switch

        # The pairings the grid does not compare are exactly the thirteen
        # whose switch has one body whatever ``backend`` says.
        assert set(single_bodied_pairings()) == {
            "2drr", "cicq", "cioq-islip", "eslip", "islip",
            "maxweight-lqf", "maxweight-ocf", "oqfifo", "pim", "serena",
            "siq-fifo", "tatra", "wba",
        }
        built = {
            type(make_switch("tatra", 4, **kw))
            for kw in ({}, {"backend": "object"}, {"backend": "vectorized"})
        }
        assert len(built) == 1
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            make_switch("tatra", 4, backend="simd")

    @pytest.mark.parametrize(
        "case",
        [
            EquivalenceCase("fifoms", {"model": "bernoulli", "p": 0.3, "b": 0.25}),
            EquivalenceCase(
                "fifoms",
                {"model": "burst", "e_on": 4.0, "e_off": 16.0, "b": 0.3},
                fault="flaky-crosspoint",
            ),
            EquivalenceCase("islip", {"model": "bernoulli", "p": 0.3, "b": 0.25}),
            EquivalenceCase("eslip", {"model": "bernoulli", "p": 0.3, "b": 0.25}),
            EquivalenceCase("cicq", {"model": "bernoulli", "p": 0.3, "b": 0.25}),
            EquivalenceCase(
                "fifoms-prio",
                {
                    "model": "bernoulli",
                    "p": 0.3,
                    "b": 0.25,
                    "class_shares": [0.5, 0.5],
                },
            ),
        ],
        ids=lambda c: c.label,
    )
    def test_backends_bit_identical(self, case):
        report = run_case(case, num_ports=8, num_slots=600)
        assert report.ok
        assert report.slots_compared == 600

    def test_main_runs_reduced_grid(self, capsys):
        assert main(["--ports", "4", "--slots", "120"]) == 0
        out = capsys.readouterr().out
        assert f"all {len(default_grid())} cases bit-identical" in out
        assert "skip" not in out
        assert "not compared (13 single-bodied" in out
        assert "tatra" in out.split("not compared")[1].splitlines()[0]


class TestSanitizedGrid:
    def test_full_grid_under_hard_sanitizer(self, monkeypatch):
        """The whole registry grid, both backends, with the runtime
        sanitizer in fail-fast mode: the engine resolves the suite from
        the environment, so any invariant violation on either backend
        raises SanitizerError out of run_case. Bit-exactness AND
        invariant-cleanliness in one sweep."""
        monkeypatch.setenv("REPRO_SANITIZE", "hard")
        for case in default_grid():
            report = run_case(case, num_ports=4, num_slots=200)
            assert report.ok, case.label
            assert report.slots_compared == 200
