"""Tests for the experiment harness: specs, figures, sweeps, checks."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments.figures import ALGO_ALIASES, FIGURES, get_figure
from repro.experiments.paper import CLAIMS, check_expectations
from repro.experiments.spec import METRIC_LABELS, FigureSpec
from repro.experiments.sweep import run_figure, run_sweep_point

from conftest import stub_result


class TestFigureCatalog:
    def test_all_paper_figures_present(self):
        for fid in ("fig4", "fig5", "fig6", "fig7", "fig8"):
            assert fid in FIGURES

    def test_paper_figures_use_16_ports(self):
        for fid in ("fig4", "fig5", "fig6", "fig7", "fig8"):
            assert FIGURES[fid].num_ports == 16

    def test_four_panel_figures(self):
        for fid in ("fig4", "fig6", "fig7", "fig8"):
            assert FIGURES[fid].metrics == (
                "input_delay",
                "output_delay",
                "avg_queue",
                "max_queue",
            )

    def test_traffic_specs_hit_requested_load(self):
        from repro.sim.runner import build_traffic

        for fid in FIGURES:
            spec = FIGURES[fid]
            for load in spec.loads[:3]:
                tr = build_traffic(spec.traffic_for_load(load), spec.num_ports, rng=0)
                assert tr.effective_load == pytest.approx(load, rel=1e-9)

    def test_get_figure_unknown(self):
        with pytest.raises(ConfigurationError):
            get_figure("fig99")

    def test_aliases_resolve_to_registered_bases(self):
        from repro.schedulers.registry import available_schedulers

        bases = available_schedulers()
        for alias, base in ALGO_ALIASES.items():
            assert base in bases

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            FigureSpec(
                figure_id="x",
                title="t",
                description="d",
                num_ports=4,
                algorithms=("fifoms",),
                loads=(0.5,),
                traffic_for_load=lambda l: {},
                metrics=("bogus",),
            )
        with pytest.raises(ConfigurationError):
            FigureSpec(
                figure_id="x",
                title="t",
                description="d",
                num_ports=4,
                algorithms=(),
                loads=(0.5,),
                traffic_for_load=lambda l: {},
                metrics=("rounds",),
            )


def _score(fid, **kw):
    return {e.claim: e for e in check_expectations(stub_result(FIGURES[fid], **kw))}


class TestClaimTable:
    def test_every_figure_is_scored(self):
        for fid, spec in FIGURES.items():
            names = [e.claim for e in check_expectations(stub_result(spec))]
            assert names, fid
            # bench keys its ops as claim:<name>; a duplicate would collide.
            assert len(set(names)) == len(names), fid
        assert {fid for fid, _, _ in CLAIMS} == set(FIGURES)

    @pytest.mark.parametrize("fid", sorted(FIGURES))
    def test_claim_names_survive_a_missing_algorithm(self, fid):
        """Points lost to a --keep-going sweep fail rows; they never
        drop or rename one."""
        spec = FIGURES[fid]
        full = [e.claim for e in check_expectations(stub_result(spec))]
        for alg in spec.algorithms:
            partial = check_expectations(stub_result(spec, without=alg))
            assert [e.claim for e in partial] == full, alg

    def test_missing_algorithm_fails_its_rows(self):
        verdicts = _score("fig5", without="islip")
        assert len(verdicts) == 4
        assert not any(e.passed for e in verdicts.values())
        rounds = verdicts.pop("no slot needs more than N rounds (§IV.C)")
        assert rounds.detail == f"no islip points at loads {list(FIGURES['fig5'].loads)}"
        assert {e.detail for e in verdicts.values()} == {"no common stable loads"}

    @pytest.mark.parametrize("fid", sorted(FIGURES))
    def test_rows_fail_without_a_point_they_read(self, fid):
        """A missing point never reads as PASS: dropping every point of
        an algorithm a row reads, or only the lowest-load point it reads,
        FAILs the row."""
        spec = FIGURES[fid]
        for figure_id, claim, predicate in CLAIMS:
            if figure_id != fid:
                continue
            reads = set()
            predicate(stub_result(spec, reads=reads))
            assert reads, claim
            for alg in {a for a, _ in reads}:
                lowest = min(l for a, l in reads if a == alg)
                assert not predicate(stub_result(spec, without=alg))[0], (claim, alg)
                dropped = stub_result(spec, drop=((alg, lowest),))
                assert not predicate(dropped)[0], (claim, alg, lowest)

    def test_cicq_row_fails_where_only_fifoms_saturates(self):
        claim = "FIFOMS queues are no larger than CICQ's at loads >= 0.5"
        unstable = {"unstable": True}
        assert _score("ext-cicq")[claim].passed
        assert _score("ext-cicq", **{"fifoms@0.3": unstable})[claim].passed
        both = {"fifoms@0.7": unstable, "cicq@0.7": unstable}
        assert _score("ext-cicq", **both)[claim].passed
        verdict = _score("ext-cicq", **{"fifoms@0.7": unstable})[claim]
        assert not verdict.passed
        assert verdict.detail == "fifoms unstable or larger at [0.7]"
        larger = _score("ext-cicq", **{"fifoms@0.85": {"value": 1.01}})[claim]
        assert not larger.passed

    def test_tiebreak_row_compares_policies_beside_a_saturated_one(self):
        (claim,) = _score("abl-tiebreak")
        assert _score("abl-tiebreak")[claim].passed
        diverged = {"fifoms-rr@0.85": {"unstable": True}, "fifoms-lowest@0.85": {"value": 3.0}}
        verdict = _score("abl-tiebreak", **diverged)[claim]
        assert not verdict.passed
        assert verdict.detail == "diverged at [(0.85, 1.0, 3.0)]"
        alone = {f"{a}@{l}": {"unstable": True}
                 for a in ("fifoms-lowest", "fifoms-rr") for l in FIGURES["abl-tiebreak"].loads}
        verdict = _score("abl-tiebreak", **alone)[claim]
        assert (verdict.passed, verdict.detail) == (False, "no load where two policies are stable")


class TestSweepPoints:
    def test_grid_shape_and_seeds(self):
        spec = FIGURES["fig5"]
        pts = spec.points(num_slots=100, seed=3)
        assert len(pts) == len(spec.algorithms) * len(spec.loads)
        assert len({p.seed for p in pts}) == len(pts)  # all distinct

    def test_seeds_stable_across_subsets(self):
        spec = FIGURES["fig5"]
        full = {
            (p.algorithm, p.load): p.seed for p in spec.points(num_slots=9, seed=1)
        }
        sub = spec.points(num_slots=9, seed=1, loads=spec.loads[:2])
        for p in sub:
            assert full[(p.algorithm, p.load)] == p.seed

    def test_run_sweep_point_alias_relabels(self):
        spec = FIGURES["abl-iterations"]
        pt = next(
            p
            for p in spec.points(num_slots=300, seed=0, loads=[0.3])
            if p.algorithm == "fifoms-1iter"
        )
        summary = run_sweep_point(pt)
        assert summary.algorithm == "fifoms-1iter"
        assert summary.max_rounds <= 1


class TestRunFigure:
    @pytest.fixture(scope="class")
    def small_fig5(self):
        return run_figure(
            FIGURES["fig5"], num_slots=1500, seed=1, loads=[0.3, 0.6], workers=1
        )

    def test_series_layout(self, small_fig5):
        series = small_fig5.series("rounds")
        assert set(series) == {"fifoms", "islip"}
        assert all(len(v) == 2 for v in series.values())
        assert all(v >= 1 for vals in series.values() for v in vals)

    def test_to_text_contains_panels(self, small_fig5):
        text = small_fig5.to_text()
        assert METRIC_LABELS["rounds"] in text
        assert "fifoms" in text and "islip" in text

    def test_expectations_run(self, small_fig5):
        results = check_expectations(small_fig5)
        assert results  # fig5 has registered claims
        for e in results:
            assert e.figure_id == "fig5"
            assert isinstance(e.passed, bool)
            assert str(e).startswith("[")

    def test_censoring_unstable(self):
        # Offered load 1.2 > 1 exceeds output capacity outright: every
        # switch is supercritical, the run is flagged unstable and the
        # delay series censors it to +inf.
        res = run_figure(
            FIGURES["fig4"], num_slots=4000, seed=1, loads=[1.2],
            algorithms=["fifoms"], workers=1,
        )
        assert res.saturation_load("fifoms") == 1.2
        assert math.isinf(res.series("output_delay")["fifoms"][0])
        summary = res.summaries[("fifoms", 1.2)]
        assert summary.unstable
        assert summary.slots_run < 4000  # the engine cut the run short
        assert summary.final_backlog > 0

    def test_parallel_equals_serial(self):
        kw = dict(num_slots=800, seed=2, loads=[0.3, 0.5])
        a = run_figure(FIGURES["fig5"], workers=1, **kw)
        b = run_figure(FIGURES["fig5"], workers=2, **kw)
        for key in a.summaries:
            assert (
                a.summaries[key].average_output_delay
                == b.summaries[key].average_output_delay
            )

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            run_figure(FIGURES["fig5"], num_slots=10, loads=[], workers=1)
