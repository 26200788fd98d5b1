"""The point pool's watchdog, through both of its callers.

``run_figure`` and the durable campaign supervisor drive their grids
through one executor (``repro.experiments.sweep.PointPool``; semantics
in docs/robustness.md, "Self-healing sweeps"). These tests hang a real
worker under a real ``point_timeout`` and check what the pool promises:
finished points are kept and never re-run, the awaited point fails as a
timeout and the rest of its batch with the collateral label, the pool
is respawned for the retry round, and no worker outlives the call.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.campaign import run_durable_campaign
from repro.experiments.spec import FigureSpec
from repro.experiments.sweep import FailedPoint, PointPool, run_figure
from repro.schedulers import registry

REPO_ROOT = Path(__file__).resolve().parent.parent
LOADS = (0.2, 0.4)

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers must inherit the tests-only 'hang' registration",
)


def _hang_spec() -> FigureSpec:
    return FigureSpec(
        figure_id="t-hang",
        title="two healthy points, two that never return",
        description="",
        num_ports=4,
        algorithms=("fifoms", "hang"),
        loads=LOADS,
        traffic_for_load=lambda load: {
            "model": "bernoulli", "p": load / (0.2 * 4), "b": 0.2 / 4,
        },
        metrics=("throughput",),
    )


@pytest.fixture
def fifoms_builds(tmp_path):
    """Register ``hang`` (its factory blocks forever) and count, in a file
    the forked workers append to, how often a ``fifoms`` switch is built."""
    log = tmp_path / "fifoms-builds.log"
    build_fifoms = registry._REGISTRY["fifoms"]

    def counted_fifoms(num_ports, **kwargs):
        with log.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        return build_fifoms(num_ports, **kwargs)

    registry.register_switch_factory("fifoms", counted_fifoms)
    registry.register_switch_factory(
        "hang", lambda num_ports, **kwargs: threading.Event().wait()
    )
    try:
        yield lambda: len(log.read_text().splitlines())
    finally:
        registry._REGISTRY["fifoms"] = build_fifoms
        registry._REGISTRY.pop("hang", None)


def _figure_failures(tmp_path) -> dict[tuple[str, float], FailedPoint]:
    result = run_figure(
        _hang_spec(), num_slots=300, seed=3, workers=2, point_timeout=1,
        point_retries=1, on_point_failure="record",
    )
    assert set(result.summaries) == {("fifoms", load) for load in LOADS}
    return result.failures


def _campaign_failures(tmp_path) -> dict[tuple[str, float], FailedPoint]:
    result, stats = run_durable_campaign(
        tmp_path / "store", ["t-hang"], figures={"t-hang": _hang_spec()},
        num_slots=300, seed=3, workers=2, point_timeout=1, max_attempts=2,
        backoff_base=0, install_signal_handlers=False,
    )
    figure = result.figures["t-hang"]
    assert set(figure.summaries) == {("fifoms", load) for load in LOADS}
    assert stats.points_executed == 2
    assert stats.points_failed == 2
    # One teardown per attempt round, each of them a real one.
    assert stats.pool_respawns == 2
    return figure.failures


@needs_fork
@pytest.mark.parametrize("failures_of", [_figure_failures, _campaign_failures])
def test_hung_points_time_out_and_leave_no_worker(
    failures_of, fifoms_builds, tmp_path
):
    failures = failures_of(tmp_path)

    assert fifoms_builds() == 2  # finished points are kept, never re-run
    assert set(failures) == {("hang", load) for load in LOADS}
    awaited, collateral = failures[("hang", 0.2)], failures[("hang", 0.4)]
    assert (awaited.error_type, awaited.message) == (
        "TimeoutError", "no result within 1s"
    )
    assert (collateral.error_type, collateral.message) == (
        "SweepPointError",
        "worker pool torn down after a timeout or worker death",
    )
    assert awaited.attempts == collateral.attempts == 2
    # Both rounds waited out the watchdog before giving up on the point.
    assert awaited.elapsed_s >= 2.0
    assert multiprocessing.active_children() == []


@needs_fork
def test_interpreter_exits_after_a_hung_point(tmp_path):
    """``repro-sim figure --point-timeout`` must not turn a hung worker
    into a hung CLI: once ``run_figure`` returns, nothing is left for the
    interpreter's exit handlers to wait on."""
    script = tmp_path / "hang_once.py"
    script.write_text(textwrap.dedent("""
        import threading

        from repro.experiments.spec import FigureSpec
        from repro.experiments.sweep import run_figure
        from repro.schedulers.registry import register_switch_factory

        register_switch_factory(
            "hang", lambda num_ports, **kwargs: threading.Event().wait()
        )
        spec = FigureSpec(
            figure_id="t-hang", title="", description="", num_ports=4,
            algorithms=("hang",), loads=(0.2, 0.4),
            traffic_for_load=lambda load: {
                "model": "bernoulli", "p": load, "b": 0.25,
            },
            metrics=("throughput",),
        )
        result = run_figure(
            spec, num_slots=100, workers=2, point_timeout=1,
            on_point_failure="record",
        )
        print(sorted(fp.error_type for fp in result.failures.values()))
    """))
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, str(script)], env=env, cwd=tmp_path,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,  # so a failure can kill the workers too
    )
    try:
        stdout, stderr = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("interpreter still alive 30 s after a 1 s point timeout")
    assert proc.returncode == 0, stderr
    assert stdout.strip() == "['SweepPointError', 'TimeoutError']"


@pytest.mark.parametrize("workers", [1, 2])
def test_stop_keeps_finished_points_and_closes_the_pool(workers):
    """``stop`` is the supervisor's signal flag: polled after each
    outcome, it ends the batch without failing anything."""
    spec = _hang_spec()
    points = spec.points(
        num_slots=300, seed=3, algorithms=("fifoms",),
        loads=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6),
    )
    seen: list[float] = []
    pool = PointPool(workers, point_timeout=None)
    try:
        for load, summary, error, _elapsed_s in pool.run(
            [(p.load, p) for p in points], stop=lambda: bool(seen)
        ):
            assert summary is not None and error == ("", "")
            seen.append(load)
    finally:
        pool.close()

    assert seen[0] == 0.1
    assert seen == sorted(set(seen))  # submission order, nothing twice
    if workers == 1:
        assert seen == [0.1]  # the serial path starts nothing after the flag
    assert multiprocessing.active_children() == []
