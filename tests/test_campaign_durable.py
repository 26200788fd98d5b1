"""Tests for the durable campaign layer (store, supervisor, CLI).

The contract under test: a campaign interrupted at *any* point and
resumed produces byte-identical artifacts to an uninterrupted run,
re-executing zero journaled points. Real-process chaos (SIGKILL) lives
in ``test_campaign_chaos.py``; here interruption is driven
deterministically through the ``max_points`` budget.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.campaign.store as store_mod
from repro.campaign import (
    CampaignStore,
    PointRecord,
    campaign_status,
    code_signature,
    point_key,
    resume_campaign,
    run_durable_campaign,
)
from repro.cli import main
from repro.errors import CampaignError, CampaignInterrupted
from repro.experiments.spec import FigureSpec, SweepPoint
from repro.stats.summary import SimulationSummary


# --------------------------------------------------------------------- #
# Fixtures: tiny figure specs the supervisor can chew through in ms
# --------------------------------------------------------------------- #
def _traffic(load: float) -> dict:
    return {"model": "bernoulli", "p": load / 2, "b": 0.5}


def _bad_traffic(load: float) -> dict:
    # p > 1 fails validation inside the worker, deterministically.
    return {"model": "bernoulli", "p": 2.0, "b": 0.5}


def tiny_spec(
    figure_id: str = "tiny",
    *,
    loads: tuple[float, ...] = (0.3, 0.5),
    traffic=_traffic,
    backend: str | None = None,
) -> FigureSpec:
    kwargs = {"fifoms": {"backend": backend}} if backend else {}
    return FigureSpec(
        figure_id=figure_id,
        title=f"Tiny test figure {figure_id}",
        description="durable-campaign test grid",
        num_ports=4,
        algorithms=("fifoms",),
        loads=loads,
        traffic_for_load=traffic,
        metrics=("throughput",),
        switch_kwargs=kwargs,
    )


def _point(seed: int = 1) -> SweepPoint:
    return SweepPoint(
        figure_id="tiny",
        algorithm="fifoms",
        load=0.5,
        num_ports=4,
        traffic_spec=_traffic(0.5),
        num_slots=100,
        seed=seed,
    )


def _summary(seed: int = 1) -> SimulationSummary:
    from repro.sim.runner import run_simulation

    return run_simulation("fifoms", 4, _traffic(0.5), num_slots=50, seed=seed)


def _run(directory, figures, **kwargs):
    kwargs.setdefault("num_slots", 150)
    kwargs.setdefault("seed", 11)
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("install_signal_handlers", False)
    return run_durable_campaign(
        directory, list(figures), figures=figures, **kwargs
    )


def _resume(directory, figures, **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("install_signal_handlers", False)
    return resume_campaign(directory, figures=figures, **kwargs)


# --------------------------------------------------------------------- #
# Content addressing
# --------------------------------------------------------------------- #
class TestPointKey:
    def test_deterministic(self):
        assert point_key(_point()) == point_key(_point())

    def test_sensitive_to_every_knob(self):
        base = point_key(_point(seed=1))
        assert point_key(_point(seed=2)) != base

    def test_sensitive_to_code_signature(self):
        sig = code_signature()
        assert point_key(_point(), sig) != point_key(_point(), sig + "x")

    def test_signature_is_cached_and_hexlike(self):
        sig = code_signature()
        assert sig == code_signature()
        assert len(sig) == 64
        int(sig, 16)


# --------------------------------------------------------------------- #
# Journal records
# --------------------------------------------------------------------- #
class TestPointRecord:
    def test_done_round_trip_preserves_nonfinite_floats(self):
        summary = SimulationSummary(**{
            **_summary().to_dict(),
            "average_input_delay": math.inf,
            "average_output_delay": math.nan,
        })
        rec = PointRecord.done(
            "k", _point(), summary, attempts=2, elapsed_s=1.5, backoff_s=0.25
        )
        back = PointRecord.from_json_line(rec.to_json_line())
        restored = back.to_summary()
        assert restored.average_input_delay == math.inf
        assert math.isnan(restored.average_output_delay)
        assert restored.algorithm == summary.algorithm
        assert restored.carried_load == summary.carried_load
        assert back.attempts == 2
        assert back.elapsed_s == 1.5
        assert back.backoff_s == 0.25

    def test_done_round_trip_is_bit_identical(self):
        summary = _summary()
        rec = PointRecord.done(
            "k", _point(), summary, attempts=1, elapsed_s=0.5, backoff_s=0.0
        )
        back = PointRecord.from_json_line(rec.to_json_line())
        assert back.to_summary().to_dict() == summary.to_dict()

    def test_failed_round_trip(self):
        rec = PointRecord.failed(
            "k", _point(), error_type="ValueError", message="boom",
            attempts=3, elapsed_s=0.1, backoff_s=0.7,
        )
        back = PointRecord.from_json_line(rec.to_json_line())
        assert back.status == "failed"
        assert back.error_type == "ValueError"
        with pytest.raises(CampaignError):
            back.to_summary()

    def test_invalid_status_rejected(self):
        with pytest.raises(CampaignError):
            PointRecord(
                key="k", figure_id="f", algorithm="a", load=0.5, seed=1,
                status="meh", attempts=1, elapsed_s=0.0, backoff_s=0.0,
            )


# --------------------------------------------------------------------- #
# Store lifecycle and journal durability
# --------------------------------------------------------------------- #
class TestCampaignStore:
    def _create(self, tmp_path):
        return CampaignStore.create(
            tmp_path / "store", figure_ids=["tiny"], num_slots=100, seed=1
        )

    def test_open_missing_raises(self, tmp_path):
        with pytest.raises(CampaignError, match="not a campaign store"):
            CampaignStore.open(tmp_path / "nope")

    def test_conflicting_config_rejected(self, tmp_path):
        self._create(tmp_path)
        with pytest.raises(CampaignError, match="different campaign"):
            CampaignStore.create(
                tmp_path / "store", figure_ids=["tiny"], num_slots=999, seed=1
            )

    def test_matching_config_reopens(self, tmp_path):
        first = self._create(tmp_path)
        again = self._create(tmp_path)
        assert again.manifest == first.manifest

    def test_torn_tail_is_dropped(self, tmp_path):
        store = self._create(tmp_path)
        rec = PointRecord.failed(
            "k", _point(), error_type="E", message="m",
            attempts=1, elapsed_s=0.0, backoff_s=0.0,
        )
        store.append(rec)
        store.close()
        with store.journal_path.open("a") as fh:
            fh.write('{"key": "torn...')  # crash mid-append, no newline
        records = store.read_journal()
        assert [r.key for r in records] == ["k"]

    def test_interior_corruption_raises(self, tmp_path):
        store = self._create(tmp_path)
        rec = PointRecord.failed(
            "k", _point(), error_type="E", message="m",
            attempts=1, elapsed_s=0.0, backoff_s=0.0,
        )
        with store.journal_path.open("a") as fh:
            fh.write("not json\n")
            fh.write(rec.to_json_line() + "\n")
        with pytest.raises(CampaignError, match="corrupt campaign journal"):
            store.read_journal()

    def test_failed_records_are_not_checkpoints(self, tmp_path):
        store = self._create(tmp_path)
        store.append(PointRecord.failed(
            "k", _point(), error_type="E", message="m",
            attempts=1, elapsed_s=0.0, backoff_s=0.0,
        ))
        store.close()
        assert store.checkpoints() == {}
        assert set(store.failures()) == {"k"}

    def test_done_supersedes_failed(self, tmp_path):
        store = self._create(tmp_path)
        store.append(PointRecord.failed(
            "k", _point(), error_type="E", message="m",
            attempts=1, elapsed_s=0.0, backoff_s=0.0,
        ))
        summary = _summary()
        store.append(PointRecord.done(
            "k", _point(), summary, attempts=2, elapsed_s=0.1, backoff_s=0.2
        ))
        store.close()
        assert set(store.checkpoints()) == {"k"}
        assert store.failures() == {}


# --------------------------------------------------------------------- #
# Supervisor: happy path, resume, retries, failure exhaustion
# --------------------------------------------------------------------- #
class TestDurableCampaign:
    def test_complete_then_resume_skips_everything(self, tmp_path):
        figs = {"tiny": tiny_spec()}
        d = tmp_path / "camp"
        result, stats = _run(d, figs)
        assert stats.points_executed == 2
        assert stats.points_skipped == 0
        assert (d / "manifest.json").exists()
        assert json.loads((d / "manifest.json").read_text())["state"] == "complete"
        csv1 = (d / "csv" / "tiny.csv").read_bytes()
        report1 = (d / "REPORT.md").read_bytes()

        result2, stats2 = _resume(d, figs)
        assert stats2.points_executed == 0
        assert stats2.points_skipped == 2
        assert (d / "csv" / "tiny.csv").read_bytes() == csv1
        assert (d / "REPORT.md").read_bytes() == report1
        assert result2.claims_total == result.claims_total

    def test_budget_interrupt_is_resumable_and_byte_identical(self, tmp_path):
        figs = {"tiny": tiny_spec(loads=(0.2, 0.4, 0.6))}
        clean = tmp_path / "clean"
        _run(clean, figs)
        ref_csv = (clean / "csv" / "tiny.csv").read_bytes()
        ref_report = (clean / "REPORT.md").read_bytes()

        d = tmp_path / "interrupted"
        with pytest.raises(CampaignInterrupted) as exc_info:
            _run(d, figs, max_points=1)
        assert exc_info.value.points_done == 1
        assert exc_info.value.points_total == 3
        assert json.loads(
            (d / "manifest.json").read_text()
        )["state"] == "interrupted"

        _, stats = _resume(d, figs)
        assert stats.points_skipped == 1
        assert stats.points_executed == 2
        assert (d / "csv" / "tiny.csv").read_bytes() == ref_csv
        assert (d / "REPORT.md").read_bytes() == ref_report

    def test_zero_budget_interrupts_before_any_execution(self, tmp_path):
        figs = {"tiny": tiny_spec()}
        with pytest.raises(CampaignInterrupted):
            _run(tmp_path / "camp", figs, max_points=0)
        store = CampaignStore.open(tmp_path / "camp")
        assert store.checkpoints() == {}

    def test_budget_equal_to_grid_completes_normally(self, tmp_path):
        figs = {"tiny": tiny_spec()}
        _, stats = _run(tmp_path / "camp", figs, max_points=2)
        assert stats.points_executed == 2
        state = json.loads((tmp_path / "camp" / "manifest.json").read_text())
        assert state["state"] == "complete"

    def test_exhausted_points_recorded_with_backoff(self, tmp_path):
        figs = {"bad": tiny_spec("bad", traffic=_bad_traffic)}
        sleeps: list[float] = []
        result, stats = run_durable_campaign(
            tmp_path / "camp", ["bad"], figures=figs,
            num_slots=100, seed=11, workers=1, max_attempts=3,
            backoff_base=0.5, backoff_cap=30.0,
            install_signal_handlers=False,
        )
        # Patch-free sleep assertion: re-run with an injected recorder.
        from repro.campaign.supervisor import CampaignSupervisor

        store = CampaignStore.create(
            tmp_path / "camp2", figure_ids=["bad"], num_slots=100, seed=11
        )
        sup = CampaignSupervisor(
            store, figs, workers=1, point_timeout=None, max_attempts=3,
            backoff_base=0.5, backoff_cap=30.0, metric_sink=None,
            max_points=None, sleep=sleeps.append,
            install_signal_handlers=False,
        )
        sup.run()

        assert stats.points_failed == 2
        assert stats.retries == 4  # 2 points x 2 retry rounds
        state = json.loads((tmp_path / "camp" / "manifest.json").read_text())
        assert state["state"] == "failed"
        # Two backoff pauses (before rounds 2 and 3), equal-jitter bounded.
        assert len(sleeps) == 2
        assert 0.25 <= sleeps[0] < 0.5      # base * 2^0 * [0.5, 1.0)
        assert 0.5 <= sleeps[1] < 1.0       # base * 2^1 * [0.5, 1.0)
        # FailedPoint provenance flows into the figure result.
        fig = result.figures["bad"]
        assert len(fig.failures) == 2
        for fp in fig.failures.values():
            assert fp.attempts == 3
            assert fp.error_type == "ConfigurationError"
            assert fp.backoff_s == pytest.approx(sum(sleeps))
        # failures.json artifact carries the dashboard columns.
        doc = json.loads((tmp_path / "camp" / "failures.json").read_text())
        assert len(doc["failures"]) == 2
        for row in doc["failures"]:
            assert {"attempts", "elapsed_s", "backoff_s"} <= set(row)

    def test_backoff_schedule_is_seeded(self, tmp_path):
        from repro.campaign.supervisor import CampaignSupervisor

        figs = {"bad": tiny_spec("bad", traffic=_bad_traffic)}
        schedules = []
        for name in ("a", "b"):
            sleeps: list[float] = []
            store = CampaignStore.create(
                tmp_path / name, figure_ids=["bad"], num_slots=100, seed=42
            )
            CampaignSupervisor(
                store, figs, workers=1, point_timeout=None, max_attempts=3,
                backoff_base=0.5, backoff_cap=30.0, metric_sink=None,
                max_points=None, sleep=sleeps.append,
                install_signal_handlers=False,
            ).run()
            schedules.append(tuple(sleeps))
        assert schedules[0] == schedules[1]

    def test_failed_points_retry_on_resume(self, tmp_path):
        figs = {"bad": tiny_spec("bad", traffic=_bad_traffic)}
        d = tmp_path / "camp"
        _run(d, figs, max_attempts=1)
        # Still failing on resume: re-executed (not skipped), fails again.
        _, stats = _resume(d, figs, max_attempts=1)
        assert stats.points_skipped == 0
        assert stats.points_failed == 2

    def test_code_signature_change_invalidates_checkpoints(
        self, tmp_path, monkeypatch
    ):
        figs = {"tiny": tiny_spec()}
        d = tmp_path / "camp"
        _run(d, figs)
        monkeypatch.setitem(
            store_mod._signature_cache,
            next(iter(store_mod._signature_cache)),
            "f" * 64,
        )
        status = campaign_status(d, figures=figs)
        assert not status["signature_current"]
        assert status["figures"]["tiny"]["pending"] == 2
        _, stats = _resume(d, figs)
        assert stats.points_skipped == 0
        assert stats.points_executed == 2

    def test_metric_sink_receives_campaign_snapshots(self, tmp_path):
        from repro.obs.sinks import InMemorySink

        figs = {"tiny": tiny_spec()}
        sink = InMemorySink()
        _run(tmp_path / "camp", figs, metric_sink=sink)
        kinds = [snap["kind"] for snap in sink.snapshots]
        assert "campaign.round" in kinds
        assert kinds[-1] == "campaign.final"
        final = sink.snapshots[-1]
        assert final["points_done"] == 2
        assert final["stats"]["points_executed"] == 2

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="unknown figures"):
            run_durable_campaign(
                tmp_path / "camp", ["nope"], figures={"tiny": tiny_spec()},
                install_signal_handlers=False,
            )

    def test_empty_figures_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="no figures"):
            run_durable_campaign(
                tmp_path / "camp", [], figures={},
                install_signal_handlers=False,
            )


class TestCampaignStatus:
    def test_status_of_partial_store(self, tmp_path):
        figs = {"tiny": tiny_spec(loads=(0.2, 0.4, 0.6))}
        d = tmp_path / "camp"
        with pytest.raises(CampaignInterrupted):
            _run(d, figs, max_points=2)
        status = campaign_status(d, figures=figs)
        assert status["state"] == "interrupted"
        assert status["points_done"] == 2
        tiny = status["figures"]["tiny"]
        assert tiny == {"done": 2, "failed": 0, "total": 3, "pending": 1}

    def test_status_unknown_figure_reports_none_totals(self, tmp_path):
        figs = {"tiny": tiny_spec()}
        d = tmp_path / "camp"
        _run(d, figs)
        status = campaign_status(d, figures={})
        assert status["figures"]["tiny"]["total"] is None
        assert status["figures"]["tiny"]["pending"] is None


# --------------------------------------------------------------------- #
# Property: any prefix-interrupt + resume is bit-identical, both backends
# --------------------------------------------------------------------- #
class TestResumeProperty:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        prefix=st.integers(min_value=0, max_value=2),
        backend=st.sampled_from(["object", "vectorized"]),
    )
    def test_prefix_interrupt_resume_bit_identical(
        self, tmp_path_factory, prefix, backend
    ):
        tmp_path = tmp_path_factory.mktemp("resume_prop")
        figs = {
            "tiny": tiny_spec(loads=(0.2, 0.4, 0.6), backend=backend)
        }
        clean = tmp_path / "clean"
        ref, _ = _run(clean, figs, num_slots=120, seed=29)
        ref_csv = (clean / "csv" / "tiny.csv").read_bytes()
        ref_report = (clean / "REPORT.md").read_bytes()
        ref_dicts = {
            cell: s.to_dict()
            for cell, s in ref.figures["tiny"].summaries.items()
        }

        d = tmp_path / "resumed"
        with pytest.raises(CampaignInterrupted):
            _run(d, figs, num_slots=120, seed=29, max_points=prefix)
        res, stats = _resume(d, figs)
        assert stats.points_skipped == prefix
        assert stats.points_executed == 3 - prefix
        got = {
            cell: s.to_dict()
            for cell, s in res.figures["tiny"].summaries.items()
        }
        assert got == ref_dicts
        assert (d / "csv" / "tiny.csv").read_bytes() == ref_csv
        assert (d / "REPORT.md").read_bytes() == ref_report


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #
class TestCampaignCli:
    def test_run_status_resume_round_trip(self, tmp_path, capsys):
        d = tmp_path / "store"
        argv = [
            "campaign", "run", str(d), "--figures", "fig5",
            "--slots", "120", "--seed", "5", "--workers", "1",
        ]
        assert main(argv + ["--max-points", "2"]) == 3
        assert "resume" in capsys.readouterr().err

        assert main(["campaign", "status", str(d)]) == 0
        out = capsys.readouterr().out
        assert "interrupted" in out
        assert "pending" in out

        assert main(["campaign", "resume", str(d), "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "replayed from journal" in out
        assert (d / "csv" / "fig5.csv").exists()

        assert main(["campaign", "status", str(d), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["state"] == "complete"
        assert status["figures"]["fig5"]["pending"] == 0

    def test_run_is_idempotent_on_complete_store(self, tmp_path, capsys):
        d = tmp_path / "store"
        argv = [
            "campaign", "run", str(d), "--figures", "fig5",
            "--slots", "120", "--seed", "5", "--workers", "1",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "24 replayed from journal" in second
        assert first.split("PASS")[0] == second.split("PASS")[0]

    def test_conflicting_store_config_exits_2(self, tmp_path, capsys):
        d = tmp_path / "store"
        with pytest.raises(CampaignInterrupted):
            run_durable_campaign(
                d, ["fig5"], num_slots=120, seed=5, workers=1,
                max_points=0, install_signal_handlers=False,
            )
        assert main([
            "campaign", "run", str(d), "--figures", "fig5",
            "--slots", "999", "--seed", "5", "--workers", "1",
        ]) == 2
        assert "different campaign" in capsys.readouterr().err

    def test_status_on_missing_store_exits_2(self, tmp_path, capsys):
        assert main(["campaign", "status", str(tmp_path / "nope")]) == 2
        assert "not a campaign store" in capsys.readouterr().err

    def test_metrics_stream_written(self, tmp_path):
        d = tmp_path / "store"
        metrics = tmp_path / "campaign.jsonl"
        assert main([
            "campaign", "run", str(d), "--figures", "fig5",
            "--slots", "120", "--seed", "5", "--workers", "1",
            "--metrics", str(metrics),
        ]) == 0
        lines = [
            json.loads(line)
            for line in metrics.read_text().splitlines() if line
        ]
        assert any(rec["kind"] == "campaign.final" for rec in lines)
