"""Engine/CLI integration and guard tests for the sanitizer tier.

The guard discipline mirrors the telemetry tier's: a sanitizer-off run
must never build a suite (so it pays nothing per slot), sanitized runs
must not perturb results, and real simulations — healthy,
faulty, drop-tail — must come out violation-free.
"""

from __future__ import annotations

import pytest

from repro.sanitize import SANITIZE_ENV, SanitizerError, SanitizerSuite
from repro.sim.runner import run_simulation

TRAFFIC = {"model": "bernoulli", "p": 0.3, "b": 0.25}


@pytest.fixture(autouse=True)
def _sanitize_env_unset(monkeypatch):
    """Each test starts from the default (off) environment."""
    monkeypatch.delenv(SANITIZE_ENV, raising=False)


# --------------------------------------------------------------------- #
# Guards: the plain path is untouched when the sanitizer is off
# --------------------------------------------------------------------- #
class TestPlainPathGuards:
    def test_engine_resolves_to_none_by_default(self):
        summary = run_simulation("fifoms", 4, TRAFFIC, num_slots=50, seed=1)
        assert summary.slots_run == 50  # plain path ran to completion

    def test_off_run_never_constructs_a_suite(self, monkeypatch):
        def _boom(*args, **kwargs):
            raise AssertionError("SanitizerSuite built on the off path")

        monkeypatch.setattr(
            "repro.sanitize.SanitizerSuite.__init__", _boom
        )
        summary = run_simulation("fifoms", 4, TRAFFIC, num_slots=50, seed=1)
        assert summary.slots_run == 50

    def test_sanitized_summary_is_byte_identical(self):
        plain = run_simulation("fifoms", 8, TRAFFIC, num_slots=400, seed=3)
        sanitized = run_simulation(
            "fifoms", 8, TRAFFIC, num_slots=400, seed=3, sanitize=True
        )
        assert sanitized.to_json() == plain.to_json()

    def test_env_enables_without_touching_call_sites(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        suite = SanitizerSuite(fail_at_finish=False)
        summary = run_simulation(
            "fifoms", 4, TRAFFIC, num_slots=60, seed=1, sanitize=suite
        )
        assert summary.slots_run == 60
        assert suite.slots_checked == 60 and suite.ok


# --------------------------------------------------------------------- #
# Sanitized real runs come out clean
# --------------------------------------------------------------------- #
class TestCleanRuns:
    @pytest.mark.parametrize("algo", ["fifoms", "islip", "wba", "greedy-mcast"])
    def test_healthy_runs_have_zero_violations(self, algo):
        suite = SanitizerSuite(deep_every=32)
        summary = run_simulation(
            algo, 8, TRAFFIC, num_slots=400, seed=7, sanitize=suite
        )
        assert suite.ok and suite.slots_checked == summary.slots_run
        assert suite.deep_passes >= 400 // 32

    def test_vectorized_backend_clean(self):
        suite = SanitizerSuite(deep_every=32)
        run_simulation(
            "fifoms", 8, TRAFFIC, num_slots=400, seed=7,
            backend="vectorized", sanitize=suite,
        )
        assert suite.ok

    @pytest.mark.parametrize("scenario", ["chaos", "output-outage", "input-outage"])
    def test_fault_scenarios_conserve_cells(self, scenario):
        """Seeded fault runs: conservation checked against the loss ledger."""
        suite = SanitizerSuite(deep_every=64)
        summary = run_simulation(
            "fifoms", 8, TRAFFIC, num_slots=800, seed=11,
            faults=scenario, sanitize=suite,
        )
        assert suite.ok, [str(v) for v in suite.violations]
        assert summary.faults is not None

    def test_drop_tail_buffers_conserve_cells(self):
        suite = SanitizerSuite(deep_every=64)
        run_simulation(
            "fifoms", 8, {"model": "bernoulli", "p": 0.9, "b": 0.6},
            num_slots=600, seed=5, sanitize=suite,
            buffer_capacity=4, buffer_overflow="drop",
        )
        assert suite.ok, [str(v) for v in suite.violations]

    def test_instrumented_loop_also_sanitizes(self):
        from repro.obs import Telemetry

        suite = SanitizerSuite(deep_every=32)
        run_simulation(
            "fifoms", 4, TRAFFIC, num_slots=100, seed=2,
            telemetry=Telemetry(), sanitize=suite,
        )
        assert suite.ok and suite.slots_checked == 100


# --------------------------------------------------------------------- #
# Failure semantics through the engine
# --------------------------------------------------------------------- #
class _LyingChecker:
    """A checker that always fires — drives the failure paths."""

    name = "lying"

    def attach(self, ctx):
        return []

    def on_slot(self, ctx, slot, arrivals, result):
        from repro.sanitize import Violation

        return [Violation(checker=self.name, slot=slot, message="planted")]

    def deep_check(self, ctx, slot):
        return []


class TestFailureSemantics:
    def test_record_mode_raises_at_finish(self):
        suite = SanitizerSuite(checkers=[_LyingChecker()])
        with pytest.raises(SanitizerError, match="planted"):
            run_simulation(
                "fifoms", 4, TRAFFIC, num_slots=20, seed=1, sanitize=suite
            )
        assert suite.slots_checked == 20  # full list collected first

    def test_hard_fail_raises_mid_loop(self):
        suite = SanitizerSuite(checkers=[_LyingChecker()], hard_fail=True)
        with pytest.raises(SanitizerError, match="planted"):
            run_simulation(
                "fifoms", 4, TRAFFIC, num_slots=20, seed=1, sanitize=suite
            )
        assert suite.slots_checked == 1  # stopped at the first slot


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #
class TestCli:
    def test_run_sanitize_flag(self, capsys):
        from repro.cli import main

        rc = main(
            ["run", "-a", "fifoms", "-n", "4", "--slots", "200", "--sanitize"]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "sanitizer: 200 slots checked" in err
        assert "0 violation(s)" in err

    def test_run_sanitize_writes_report_artifact(self, tmp_path, capsys):
        import json

        from repro.cli import main

        out_dir = tmp_path / "run"
        rc = main(
            [
                "run", "-a", "fifoms", "-n", "4", "--slots", "100",
                "--sanitize", "--out-dir", str(out_dir),
            ]
        )
        assert rc == 0
        report = json.loads((out_dir / "sanitizer.json").read_text())
        assert report["enabled"] is True
        assert report["slots_checked"] == 100
        assert report["violations"] == []
        capsys.readouterr()
