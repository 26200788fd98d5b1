"""Sweep execution: run a figure's grid of points, serially or in a
process pool, and assemble per-metric series.

Each :class:`~repro.experiments.spec.SweepPoint` is a pure function of its
fields (the seed pins all randomness), so points can run in any order and
in separate processes with bit-identical results — the rank-decomposition
pattern of the MPI guide, realized with ``concurrent.futures`` since the
offline environment has no MPI.

Two layers. :class:`PointPool` *executes* batches of points — the only
code here or in :mod:`repro.campaign` that builds a process pool, awaits
a future, applies ``point_timeout`` or reaps a worker (reference:
docs/robustness.md, "Self-healing sweeps"). :func:`run_figure` is the
in-memory *policy* over it: one crashing or hanging point must not take
the whole figure with it, so every point that fails or times out is
retried with the *same* seed up to ``point_retries`` extra rounds (a
deterministic job either always fails or always succeeds; the retry
guards against environmental flakes like a killed worker). Points still
failing after the last round either poison the sweep with a
:class:`~repro.errors.SweepPointError` carrying the originating point
(``on_point_failure="raise"``, the default) or are recorded as structured
:class:`FailedPoint` entries on the result (``on_point_failure="record"``),
and every presentation helper tolerates the holes. The durable policy
over the same pool is :class:`repro.campaign.supervisor.CampaignSupervisor`.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    TimeoutError as FutureTimeout,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, TypeVar

from repro.errors import ConfigurationError, SweepPointError
from repro.experiments.figures import ALGO_ALIASES
from repro.experiments.spec import METRIC_LABELS, FigureSpec, SweepPoint
from repro.obs.profiler import clock_ns
from repro.report.ascii import format_series, render_ascii_chart
from repro.sim.runner import run_simulation
from repro.stats.summary import SimulationSummary

__all__ = [
    "run_sweep_point", "run_figure", "FigureResult", "FailedPoint", "PointPool",
]

K = TypeVar("K")


def run_sweep_point(point: SweepPoint) -> SimulationSummary:
    """Execute one grid point (top-level function: picklable for pools)."""
    base_algorithm = ALGO_ALIASES.get(point.algorithm, point.algorithm)
    summary = run_simulation(
        base_algorithm,
        point.num_ports,
        point.traffic_spec,
        num_slots=point.num_slots,
        seed=point.seed,
        collect_telemetry=point.collect_telemetry,
        faults=point.fault_scenario,
        **point.switch_kwargs,
    )
    if point.algorithm != base_algorithm:
        # Re-label variant runs so result tables show the alias name.
        summary = SimulationSummary(
            **{**summary.to_dict(), "algorithm": point.algorithm}
        )
    return summary


@dataclass(frozen=True, slots=True)
class FailedPoint:
    """Structured record of one grid point that exhausted its retries.

    Errors cross process boundaries as strings (``error_type`` is the
    exception class name) so the record stays picklable and
    JSON-friendly regardless of what the worker raised.
    """

    point: SweepPoint
    error_type: str
    message: str
    #: Total attempts made (1 + configured retries).
    attempts: int
    #: Wall-clock seconds spent executing (or waiting on) this point
    #: across every attempt; in pool mode an upper bound, not the point's
    #: own cost (docs/robustness.md, "Self-healing sweeps").
    elapsed_s: float = 0.0
    #: Total seconds of retry backoff charged to this point (zero for
    #: plain ``run_figure`` sweeps; the durable campaign supervisor
    #: sleeps seeded exponential backoff between attempt rounds).
    backoff_s: float = 0.0

    def describe(self) -> str:
        """One-line human description for logs and reports."""
        timing = f", {self.elapsed_s:.1f}s elapsed" if self.elapsed_s else ""
        if self.backoff_s:
            timing += f", {self.backoff_s:.1f}s backoff"
        return (
            f"{self.point.algorithm} @ load {self.point.load} "
            f"(seed {self.point.seed}): {self.error_type}: {self.message} "
            f"[{self.attempts} attempt(s){timing}]"
        )


@dataclass(slots=True)
class FigureResult:
    """All runs of one figure sweep, indexed for presentation.

    ``failures`` is empty unless the sweep ran with
    ``on_point_failure="record"`` and some points kept failing; the
    series/table helpers report such holes as NaN rather than raising.
    """

    spec: FigureSpec
    loads: tuple[float, ...]
    algorithms: tuple[str, ...]
    summaries: dict[tuple[str, float], SimulationSummary] = field(default_factory=dict)
    failures: dict[tuple[str, float], FailedPoint] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def series(self, metric: str, *, censor_unstable: bool = True) -> dict[str, list[float]]:
        """Per-algorithm metric values across the load axis.

        ``censor_unstable`` replaces values measured on diverging runs by
        +inf (delay/queue metrics are meaningless there), mirroring how
        the paper's curves stop at the saturation point. Failed points
        surface as NaN.
        """
        out: dict[str, list[float]] = {}
        for alg in self.algorithms:
            vals = []
            for load in self.loads:
                s = self.summaries.get((alg, load))
                if s is None:
                    vals.append(math.nan)
                    continue
                v = s.metric(metric)
                if censor_unstable and s.unstable and metric != "throughput":
                    v = math.inf
                vals.append(v)
            out[alg] = vals
        return out

    def saturation_load(self, algorithm: str) -> float | None:
        """Smallest swept load at which ``algorithm`` went unstable."""
        for load in self.loads:
            s = self.summaries.get((algorithm, load))
            if s is not None and s.unstable:
                return load
        return None

    def to_text(self, *, charts: bool = False) -> str:
        """Render the figure as paper-style panels (one table per metric)."""
        blocks = [self.spec.title, self.spec.description, ""]
        for metric in self.spec.metrics:
            data = self.series(metric)
            blocks.append(
                format_series(
                    "load",
                    self.loads,
                    data,
                    title=f"[{self.spec.figure_id}] {METRIC_LABELS[metric]}",
                )
            )
            if charts:
                blocks.append(render_ascii_chart(self.loads, data))
            blocks.append("")
        sat = [
            f"{alg}: unstable from load {self.saturation_load(alg)}"
            for alg in self.algorithms
            if self.saturation_load(alg) is not None
        ]
        if sat:
            blocks.append("Saturation points: " + "; ".join(sat))
        if self.failures:
            blocks.append("Failed points:")
            for key in sorted(self.failures):
                blocks.append("  " + self.failures[key].describe())
        return "\n".join(blocks)

    def all_summaries(self) -> list[SimulationSummary]:
        """Every completed run of the sweep, algorithm-major then load
        order (failed points are absent)."""
        out = []
        for a in self.algorithms:
            for l in self.loads:
                s = self.summaries.get((a, l))
                if s is not None:
                    out.append(s)
        return out


# --------------------------------------------------------------------- #
# The point pool
# --------------------------------------------------------------------- #
#: What a point inherits when another point of its batch compromised the
#: pool (a timeout or a dead worker) before its own result arrived.
_COLLATERAL = (
    "SweepPointError", "worker pool torn down after a timeout or worker death"
)
_NO_ERROR = ("", "")


def _exit_with_parent() -> None:
    """Worker initializer: exit as soon as the submitting process is gone.

    Forked workers hold both ends of the pool's own pipes, so a SIGKILLed
    parent never reads as EOF there; ``parent_process()`` is the stdlib's
    liveness pipe for exactly this, under every start method.
    """
    parent = multiprocessing.parent_process()

    def watch() -> None:
        parent.join()
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _terminate_pool(pool: ProcessPoolExecutor, *, grace_s: float = 2.0) -> None:
    """Teardown of a pool holding hung or killed workers — and *reap* them.

    ``shutdown(wait=True)`` would block on a hung task forever, so the
    workers are terminated directly. Termination alone is not enough: a
    SIGTERM-ignoring or uninterruptibly-wedged worker would linger as an
    orphan, and a worker that already died leaves a zombie until joined.
    Each process therefore gets up to ``grace_s`` seconds to exit, then a
    SIGKILL fallback, then a final join — a resumed campaign never
    inherits zombie workers from the run it replaced. Private-attribute
    access is guarded because the interpreter may rearrange internals
    across versions.
    """
    # Snapshot first: shutdown() drops the executor's process table.
    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.terminate()
        except (OSError, AttributeError, ValueError):
            # Already dead, or not a real process object — nothing to do.
            continue
    # Poll for exits within the grace window, then escalate to SIGKILL.
    deadline = clock_ns() + int(grace_s * 1e9)
    alive = [p for p in procs if _proc_is_alive(p)]
    while alive and clock_ns() < deadline:
        for proc in alive:
            try:
                proc.join(timeout=0.05)
            except (OSError, AssertionError, ValueError):
                continue
        alive = [p for p in alive if _proc_is_alive(p)]
    for proc in alive:
        try:
            proc.kill()
            proc.join(timeout=1.0)
        except (OSError, AttributeError, ValueError):
            continue


def _proc_is_alive(proc: object) -> bool:
    """Whether a pool worker process still exists (guarded duck-typing)."""
    try:
        return bool(proc.is_alive())  # type: ignore[attr-defined]
    except (OSError, AttributeError, ValueError):
        return False


def _succeeded(future: Future[SimulationSummary]) -> bool:
    return (
        future.done() and not future.cancelled() and future.exception() is None
    )


class PointPool:
    """The one executor grids of sweep points run on.

    :func:`run_figure` and the durable campaign supervisor are retry
    policies over :meth:`run`; serial or pooled execution, the
    ``point_timeout`` watchdog, worker death, collateral failures and
    reaping live here (docs/robustness.md, "Self-healing sweeps").

    ``workers=None`` is resolved once, from the size of the first batch.
    Worker processes are spawned on the first pooled batch, kept across
    batches, replaced after a timeout or a worker death (counted in
    ``respawns``) and gone after :meth:`close`, which the caller owes the
    pool in a ``finally``.
    """

    def __init__(self, workers: int | None, point_timeout: float | None) -> None:
        self.workers = workers
        self.point_timeout = point_timeout
        #: Times a compromised pool was torn down (a fresh one spawns lazily).
        self.respawns = 0
        self._pool: ProcessPoolExecutor | None = None

    def run(
        self,
        jobs: Iterable[tuple[K, SweepPoint]],
        stop: Callable[[], bool] = lambda: False,
    ) -> Iterator[tuple[K, SimulationSummary | None, tuple[str, str], float]]:
        """Execute one batch; yield ``(key, summary, error, elapsed_s)``
        per job in submission order.

        ``summary`` is ``None`` for a failed point and ``error`` its
        ``(error_type_name, message)``. ``elapsed_s`` is the point's own
        wall clock on the serial path; on a pool it runs from batch start
        to the moment the outcome was seen, so it bounds rather than
        isolates the point's cost. ``stop`` is polled after each outcome:
        once true, points that already finished successfully are still
        yielded (a durable caller journals them), the rest produce no
        outcome, and the pool is closed.
        """
        jobs = list(jobs)
        if not jobs:
            return
        if self.workers is None:
            self.workers = (
                min(os.cpu_count() or 1, len(jobs)) if len(jobs) > 4 else 1
            )
        if self.workers <= 1:
            for key, point in jobs:
                if stop():
                    return
                start = clock_ns()
                try:
                    summary, error = run_sweep_point(point), _NO_ERROR
                except Exception as exc:
                    summary, error = None, (type(exc).__name__, str(exc))
                yield key, summary, error, (clock_ns() - start) / 1e9
            return

        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_exit_with_parent
            )
        start = clock_ns()
        futures = [
            (key, self._pool.submit(run_sweep_point, point)) for key, point in jobs
        ]
        for idx, (key, future) in enumerate(futures):
            summary, error = self._await(future)
            yield key, summary, error, (clock_ns() - start) / 1e9
            if stop():
                for later_key, later in futures[idx + 1:]:
                    if _succeeded(later):
                        elapsed_s = (clock_ns() - start) / 1e9
                        yield later_key, later.result(), _NO_ERROR, elapsed_s
                self.close()
                return

    def _await(
        self, future: Future[SimulationSummary]
    ) -> tuple[SimulationSummary | None, tuple[str, str]]:
        """One future's outcome; a timeout or a dead worker costs the pool."""
        if self._pool is None:
            # Compromised earlier in this batch: keep what finished, fail
            # the rest fast so the retry gets a fresh pool.
            if _succeeded(future):
                return future.result(), _NO_ERROR
            return None, _COLLATERAL
        try:
            return future.result(timeout=self.point_timeout), _NO_ERROR
        except FutureTimeout:
            error = ("TimeoutError", f"no result within {self.point_timeout}s")
        except BrokenProcessPool:
            error = ("BrokenProcessPool", "a worker process died before returning")
        except Exception as exc:
            return None, (type(exc).__name__, str(exc))
        # A wedged worker cannot be cancelled cooperatively, and one that
        # died hard (SIGKILL, OOM) took its in-flight work along: either
        # way everything still on this pool goes with it.
        self.close()
        self.respawns += 1
        return None, error

    def close(self) -> None:
        """Terminate and reap the workers; a later batch spawns new ones."""
        if self._pool is not None:
            _terminate_pool(self._pool)
            self._pool = None


def run_figure(
    spec: FigureSpec,
    *,
    num_slots: int,
    seed: int = 0,
    loads: Sequence[float] | None = None,
    algorithms: Sequence[str] | None = None,
    workers: int | None = None,
    collect_telemetry: bool = False,
    fault_scenario: str | dict[str, Any] | None = None,
    point_timeout: float | None = None,
    point_retries: int = 0,
    on_point_failure: str = "raise",
    metric_sink: Any | None = None,
) -> FigureResult:
    """Run a figure sweep and collect the results.

    ``workers=None`` chooses serial execution for small grids and a
    process pool sized to the CPU count for larger ones; pass ``workers=1``
    to force serial (e.g. inside tests) or an explicit count.
    ``collect_telemetry`` makes every worker return a metrics+profile
    snapshot in its summary (aggregate across points with
    ``repro.obs.aggregate_telemetry``).

    Robustness knobs: ``point_timeout`` bounds each point's wall-clock in
    pool mode (a hung worker is terminated, not waited on);
    ``point_retries`` re-runs failed points with the same seed that many
    extra rounds; ``on_point_failure`` decides what happens to points
    that exhaust their retries — ``"raise"`` aborts the sweep with a
    :class:`~repro.errors.SweepPointError` naming the poisoned point,
    ``"record"`` keeps going and files a :class:`FailedPoint` on the
    result. ``fault_scenario`` applies one fault-injection scenario to
    every point.

    ``metric_sink`` (a :class:`~repro.obs.sinks.MetricSink`) streams the
    sweep's merged telemetry mid-flight: after every completed retry
    round the summaries so far are folded with
    :func:`~repro.obs.telemetry.aggregate_telemetry` and emitted as one
    ``kind="round"`` snapshot (plus progress counts). The sink lives
    parent-side only — workers never see it, so it need not be picklable.
    Implies ``collect_telemetry`` (without per-point registries there
    would be nothing to stream).
    """
    if on_point_failure not in ("raise", "record"):
        raise ConfigurationError(
            f"on_point_failure must be 'raise' or 'record', got {on_point_failure!r}"
        )
    if point_retries < 0:
        raise ConfigurationError(
            f"point_retries must be >= 0, got {point_retries}"
        )
    if point_timeout is not None and point_timeout <= 0:
        raise ConfigurationError(
            f"point_timeout must be positive, got {point_timeout}"
        )
    points = spec.points(
        num_slots=num_slots, seed=seed, loads=loads, algorithms=algorithms,
        fault_scenario=fault_scenario,
    )
    if not points:
        raise ConfigurationError("empty sweep grid")
    if collect_telemetry or metric_sink is not None:
        points = [replace(p, collect_telemetry=True) for p in points]

    by_key = {(p.algorithm, p.load): p for p in points}
    pending = [((p.algorithm, p.load), p) for p in points]
    summaries: dict[tuple[str, float], SimulationSummary] = {}
    last_error: dict[tuple[str, float], tuple[str, str]] = {}
    elapsed_by_key: dict[tuple[str, float], float] = {}
    attempts = 0
    pool = PointPool(workers, point_timeout)
    try:
        for _round in range(point_retries + 1):
            if not pending:
                break
            attempts = _round + 1
            failed = []
            for key, summary, error, elapsed_s in pool.run(pending):
                if summary is not None:
                    summaries[key] = summary
                    continue
                failed.append(key)
                last_error[key] = error
                elapsed_by_key[key] = elapsed_by_key.get(key, 0.0) + elapsed_s
            pending = [(key, by_key[key]) for key in sorted(failed)]
            if metric_sink is not None:
                from repro.obs.telemetry import aggregate_telemetry

                metric_sink.emit({
                    "kind": "round",
                    "round": _round + 1,
                    "points_done": len(summaries),
                    "points_total": len(points),
                    "points_pending": len(pending),
                    "metrics": aggregate_telemetry(summaries.values()).to_dict(),
                })
    finally:
        pool.close()

    failures: dict[tuple[str, float], FailedPoint] = {}
    for key, _point in pending:
        error_type, message = last_error[key]
        failures[key] = FailedPoint(
            point=by_key[key],
            error_type=error_type,
            message=message,
            attempts=attempts,
            elapsed_s=elapsed_by_key.get(key, 0.0),
        )
    if failures and on_point_failure == "raise":
        first = failures[min(failures)]
        raise SweepPointError(
            f"sweep point failed after {first.attempts} attempt(s): "
            f"{first.describe()}",
            point=first.point,
        )

    loads_t = tuple(loads if loads is not None else spec.loads)
    algos_t = tuple(algorithms if algorithms is not None else spec.algorithms)
    out = FigureResult(
        spec=spec, loads=loads_t, algorithms=algos_t, failures=failures
    )
    for point in points:
        key = (point.algorithm, point.load)
        if key in summaries:
            out.summaries[key] = summaries[key]
    return out
