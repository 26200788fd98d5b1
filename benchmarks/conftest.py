"""Shared infrastructure for the figure-regeneration benchmarks.

Every paper figure has one benchmark that *is* the experiment: it runs
the full (reduced-length) sweep and prints the same series the paper
plots plus PASS/FAIL lines for the paper's qualitative claims (see
EXPERIMENTS.md). No result here is a timing; speed is ``bench/``'s job.

All narration goes through one :class:`repro.obs.ProgressReporter` per
print site instead of ad-hoc ``print`` calls, so two command-line flags
control it uniformly:

* ``--bench-quiet`` — suppress the figure tables and claim lines
  (pytest already owns ``--quiet``/``-q`` for its own verbosity, hence
  the prefixed name).
* ``--progress`` — additionally narrate each sweep with heartbeat lines
  (grid size before, elapsed wall-clock and slots/second after).

Knobs (environment variables):

* ``REPRO_BENCH_SLOTS`` — slots per sweep point (default 8000; the paper
  used 10^6).
* ``REPRO_FULL=1`` — paper-scale: 10^6 slots and the full load grid.
  Expect hours, not minutes.
* ``REPRO_BENCH_SEED`` — base seed (default 2004, the publication year).
"""

from __future__ import annotations

import os
import sys
from collections.abc import Sequence

import pytest

from repro.experiments import check_expectations, get_figure, run_figure
from repro.experiments.sweep import FigureResult
from repro.obs import ProgressReporter
from repro.obs.profiler import clock_ns

FULL = bool(os.environ.get("REPRO_FULL"))
BENCH_SLOTS = int(
    os.environ.get("REPRO_BENCH_SLOTS", 1_000_000 if FULL else 8_000)
)
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", 2004))

# Set from the command line in pytest_configure.
QUIET = False
PROGRESS = False


def pytest_addoption(parser: pytest.Parser) -> None:
    """Register the benchmark narration flags."""
    group = parser.getgroup("repro-bench")
    group.addoption(
        "--bench-quiet",
        action="store_true",
        default=False,
        help="suppress benchmark figure tables and claim lines",
    )
    group.addoption(
        "--progress",
        action="store_true",
        default=False,
        help="narrate benchmark sweeps with heartbeat lines",
    )


def pytest_configure(config: pytest.Config) -> None:
    """Latch the narration flags where helpers can see them."""
    global QUIET, PROGRESS
    QUIET = config.getoption("--bench-quiet", default=False)
    PROGRESS = config.getoption("--progress", default=False)


def _reporter(label: str = "") -> ProgressReporter:
    """A reporter on the *real* stdout (call inside ``capsys.disabled()``)."""
    return ProgressReporter(stream=sys.stdout, quiet=QUIET, label=label)


def sweep_and_report(
    figure_id: str,
    capsys,
    *,
    loads: Sequence[float] | None = None,
    min_pass_fraction: float = 0.7,
) -> FigureResult:
    """Run one figure sweep, print the paper-style series and claim
    checks, and assert most claims hold.

    ``min_pass_fraction`` is deliberately below 1.0: short benchmark runs
    are noisy and a single flaky borderline claim should not fail the
    whole bench (EXPERIMENTS.md records the long-run results).
    """
    spec = get_figure(figure_id)
    sweep_loads = tuple(loads) if (loads is not None and not FULL) else spec.loads
    points = len(spec.points(num_slots=BENCH_SLOTS, loads=sweep_loads))

    if PROGRESS:
        with capsys.disabled():
            _reporter(figure_id).line(
                f"[progress] {figure_id}: sweeping {points} points x "
                f"{BENCH_SLOTS} slots"
            )

    t0 = clock_ns()
    result = run_figure(
        spec, num_slots=BENCH_SLOTS, seed=BENCH_SEED, loads=sweep_loads
    )
    if PROGRESS:
        elapsed = (clock_ns() - t0) / 1e9
        rate = points * BENCH_SLOTS / elapsed if elapsed > 0 else 0.0
        with capsys.disabled():
            _reporter(figure_id).line(
                f"[progress] {figure_id}: swept in {elapsed:.1f}s "
                f"({rate:,.0f} slots/s aggregate)"
            )
    expectations = check_expectations(result)
    with capsys.disabled():
        rep = _reporter()
        rep.line("")
        rep.line(result.to_text(charts=True))
        for e in expectations:
            rep.line(str(e))
    if expectations:
        passed = sum(e.passed for e in expectations)
        assert passed / len(expectations) >= min_pass_fraction, (
            f"{figure_id}: only {passed}/{len(expectations)} paper claims "
            "reproduced — see the printed report"
        )
    return result


@pytest.fixture
def report(capsys):
    """Print through pytest's capture (for non-sweep benches)."""

    def _p(text: str) -> None:
        with capsys.disabled():
            _reporter().line(text)

    return _p
