"""Tests for repro.verify.grid (production held to the reference, one
shadowed run per case) and for the exhaustive form of the same claim."""

from __future__ import annotations

import pytest

from repro.verify.exhaustive import exhaustive_verify
from repro.verify.grid import (
    EquivalenceCase,
    default_grid,
    main,
    record_digests,
    run_case,
    single_bodied_pairings,
    slot_digest,
)
from repro.packet import Packet
from repro.switch.base import SlotResult

from conftest import slot_result

#: More FIFOMS and greedy-mcast points, one shadowed run each:
#: (pairing, id suffix, traffic spec, seed).
SHADOWED_POINTS = [
    *(("fifoms", f"bernoulli-seed{s}", dict(model="bernoulli", p=0.3, b=0.3), s)
      for s in range(3)),
    ("fifoms", "bernoulli-heavy", dict(model="bernoulli", p=0.55, b=0.3), 9),
    ("fifoms", "uniform-unicast", dict(model="uniform", p=0.8, max_fanout=1), 3),
    ("greedy-mcast", "bernoulli-heavy", dict(model="bernoulli", p=0.6, b=0.4), 42),
]


class TestSlotDigest:
    def test_delivery_order_is_canonicalized(self):
        p1 = Packet(input_port=0, destinations=(1,), arrival_slot=3)
        p2 = Packet(input_port=2, destinations=(1,), arrival_slot=1)
        a = slot_result(5, (p1, 1 << 1), (p2, 1 << 0))
        b = slot_result(5, (p2, 1 << 0), (p1, 1 << 1))
        for r in (a, b):
            r.rounds, r.requests_made = 2, True
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


class TestRecordDigests:
    class _Stub:
        num_ports = 4

        def step(self, arrivals, slot):
            return SlotResult(slot=slot)

    def test_records_every_stepped_slot(self):
        stub = self._Stub()
        digests = record_digests(stub)
        assert stub.step([None] * 4, 0).slot == 0  # the result passes through
        stub.step([None] * 4, 1)
        assert len(digests) == 2
        assert digests[0][0] == 0 and digests[1][0] == 1


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

        # The pairings the grid does not compare are exactly the nine
        # whose switch has one body whatever ``backend`` says.
        assert set(single_bodied_pairings()) == {
            "cicq", "cioq-islip", "eslip", "islip", "maxweight-lqf",
            "oqfifo", "pim", "siq-fifo", "tatra",
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
            *(
                pytest.param(EquivalenceCase(name, spec, seed=seed), id=f"{name}/{tag}")
                for name, tag, spec, seed in SHADOWED_POINTS
            ),
        ],
        ids=lambda c: c.label,
    )
    def test_backends_bit_identical(self, case):
        """One hard-fail sanitized run per case; the reference shadows the
        pairings it models (a single-bodied one runs under the catalogue
        alone, its stream held by the golden pins)."""
        report = run_case(case, num_ports=8, num_slots=600)
        assert report.slots_compared == 600

    def test_fig4_recipe_at_paper_size(self):
        """The grid runs N = 8 and 70; this is the paper's N = 16, slot
        for slot, on the Fig. 4 workload at load 0.8."""
        from repro.experiments import get_figure

        traffic = get_figure("fig4").traffic_for_load(0.8)
        report = run_case(
            EquivalenceCase("fifoms", traffic, seed=2004),
            num_ports=16,
            num_slots=2000,
        )
        assert report.slots_compared == 2000

    def test_main_runs_reduced_grid(self, capsys):
        assert main(["--ports", "4", "--slots", "120"]) == 0
        out = capsys.readouterr().out
        assert f"all {len(default_grid())} cases bit-identical" in out
        assert "skip" not in out
        assert "not compared (9 single-bodied" in out
        assert "tatra" in out.split("not compared")[1].splitlines()[0]

    @pytest.mark.parametrize(
        "argv", [["--ports", "0"], ["--ports", "-3"], ["--slots", "0"]]
    )
    def test_main_refuses_a_size_no_run_accepts(self, argv, capsys):
        """A bad size is a usage error, as in ``repro-sim``: one
        ``error:`` line and exit 2, not a traceback."""
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestSanitizedGrid:
    def test_full_grid_under_hard_sanitizer(self, monkeypatch):
        """The whole registry grid at N = 4: every case is one run under
        the fail-fast catalogue with the reference in lockstep, so an
        invariant violation or a divergence raises out of run_case.
        Bit-exactness AND invariant-cleanliness in one sweep."""
        monkeypatch.setenv("REPRO_SANITIZE", "hard")
        for case in default_grid():
            report = run_case(case, num_ports=4, num_slots=200)
            assert report.slots_compared == 200, case.label


class TestExhaustiveDecisionEquality:
    """Production and the reference agree slot by slot on *every* trace
    of the bounded domain — the small-N proof behind the sampled grid.
    CI's backend-equivalence job also runs N = 2 at horizon 3."""

    @pytest.mark.parametrize("tie_break", ["lowest_input", "random"])
    @pytest.mark.parametrize("num_ports, horizon", [(2, 2), (3, 1)])
    def test_fifoms_decision_equal_on_every_trace(
        self, num_ports, horizon, tie_break
    ):
        assert exhaustive_verify(
            "fifoms", num_ports=num_ports, horizon=horizon, tie_break=tie_break
        ).ok

    def test_a_diverging_trace_is_reported(self, monkeypatch):
        """The check can fail: a lane driver that breaks every tie for the
        highest input diverges from production's lowest-input pick."""
        from repro.verify.shadow import ReferenceLane

        monkeypatch.setattr(ReferenceLane, "_pick", lambda self, w, j: max(w))
        report = exhaustive_verify(
            "fifoms", num_ports=2, horizon=1, stop_at_first=False,
            tie_break="lowest_input",
        )
        diverging = [v.trace for v in report.violations]
        assert ((0, 0, (0,)), (0, 1, (0,))) in diverging
