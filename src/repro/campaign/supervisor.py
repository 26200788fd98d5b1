"""Durable campaign supervision: checkpointed execution with self-healing.

The supervisor turns a campaign's figure grids into one flat work list
and drives it to completion through every failure mode the environment
can offer:

* **Checkpointed resume** — every point whose content address is already
  journaled as ``done`` is skipped; its summary is replayed bit-for-bit
  from the :class:`~repro.campaign.store.CampaignStore` journal. A
  resumed campaign re-executes zero completed points.
* **Backoff retries** — a failed attempt round sleeps a seeded
  exponential backoff with equal-jitter (deterministic per campaign
  seed) before re-running only the failed points, up to
  ``max_attempts`` rounds. Deterministic failures exhaust quickly;
  environmental flakes (killed workers, OOM) get breathing room.
* **Watchdog respawn** — execution itself is
  :class:`repro.experiments.sweep.PointPool`, the executor
  :func:`~repro.experiments.sweep.run_figure` drives too: it owns the
  ``point_timeout`` watchdog, worker death, collateral failures and
  reaping (docs/robustness.md, "Self-healing sweeps"); the supervisor
  reads its outcomes and counts its respawns.
* **Clean interruption** — SIGINT/SIGTERM set a flag the pool polls
  between outcomes; the journal is already durable per append, the
  manifest flips to ``interrupted``, and
  :class:`~repro.errors.CampaignInterrupted` carries the progress made.
  Nothing is lost; ``resume`` continues from the checkpoint.

Progress streams through the PR 6 sink layer as ``campaign.*`` metrics
(one snapshot per attempt round plus a final one).
"""

from __future__ import annotations

import signal
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.errors import CampaignError, CampaignInterrupted
from repro.experiments.campaign import (
    CampaignResult,
    render_markdown_report,
)
from repro.experiments.paper import check_expectations
from repro.experiments.spec import FigureSpec, SweepPoint
from repro.experiments.sweep import FailedPoint, FigureResult, PointPool
from repro.obs.metrics import MetricsRegistry
from repro.campaign.store import CampaignStore, PointRecord, point_key
from repro.report.export import write_csv
from repro.stats.summary import SimulationSummary
from repro.utils.fileio import atomic_write_text
from repro.utils.rng import make_rng

__all__ = ["CampaignStats", "CampaignSupervisor"]

#: Signals that trigger a clean, resumable shutdown.
_SHUTDOWN_SIGNALS = (signal.SIGINT, signal.SIGTERM)


@dataclass(slots=True)
class CampaignStats:
    """Execution accounting for one supervisor run (not one campaign)."""

    points_total: int = 0
    #: Points served from the journal without re-execution.
    points_skipped: int = 0
    #: Points executed to completion by *this* run.
    points_executed: int = 0
    #: Points that exhausted every attempt round this run.
    points_failed: int = 0
    #: Individual failed attempts (a point retried twice counts two).
    retries: int = 0
    #: Times the worker pool was torn down and respawned.
    pool_respawns: int = 0
    #: Total seconds slept in backoff between attempt rounds.
    backoff_s: float = 0.0
    #: Signal number that interrupted the run, if any.
    interrupted_by: int | None = None

    def to_dict(self) -> dict[str, object]:
        """Plain-dict view for metric snapshots and CLI output."""
        return {
            "points_total": self.points_total,
            "points_skipped": self.points_skipped,
            "points_executed": self.points_executed,
            "points_failed": self.points_failed,
            "retries": self.retries,
            "pool_respawns": self.pool_respawns,
            "backoff_s": round(self.backoff_s, 3),
            "interrupted_by": self.interrupted_by,
        }


@dataclass(slots=True)
class _Job:
    """One pending point plus its retry provenance."""

    key: str
    point: SweepPoint
    attempts: int = 0
    elapsed_s: float = 0.0
    backoff_s: float = 0.0
    last_error: tuple[str, str] = ("", "")


class CampaignSupervisor:
    """Drives one campaign store to completion (see module docstring).

    Parameters mirror :func:`repro.experiments.sweep.run_figure` where
    they overlap; the additions are durability knobs:

    ``max_attempts``
        Total attempt rounds per point (1 = no retry).
    ``backoff_base`` / ``backoff_cap``
        Exponential backoff seconds between attempt rounds:
        ``min(cap, base * 2**(round-1))`` scaled by a seeded
        equal-jitter factor in ``[0.5, 1.0)``.
    ``max_points``
        Stop cleanly (state ``interrupted``) after this many *newly
        executed* points — the deterministic interruption hook the chaos
        and resume-property tests drive.
    ``sleep``
        Injectable sleep (tests pass a recorder to assert backoff
        without waiting).
    """

    def __init__(
        self,
        store: CampaignStore,
        figures: Mapping[str, FigureSpec],
        *,
        workers: int | None = None,
        point_timeout: float | None = None,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        metric_sink: object | None = None,
        max_points: int | None = None,
        sleep: Callable[[float], None] = time.sleep,
        install_signal_handlers: bool = True,
    ) -> None:
        if max_attempts < 1:
            raise CampaignError(f"max_attempts must be >= 1, got {max_attempts}")
        if backoff_base < 0 or backoff_cap < 0:
            raise CampaignError("backoff_base/backoff_cap must be >= 0")
        if point_timeout is not None and point_timeout <= 0:
            raise CampaignError(
                f"point_timeout must be positive, got {point_timeout}"
            )
        self.store = store
        self.figures = dict(figures)
        self.workers = workers
        self.point_timeout = point_timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.metric_sink = metric_sink
        self.max_points = max_points
        self.sleep = sleep
        self.install_signal_handlers = install_signal_handlers
        self.stats = CampaignStats()
        self.registry = MetricsRegistry()
        self._stop_signal: int | None = None

    # ------------------------------------------------------------------ #
    # Public entry point
    # ------------------------------------------------------------------ #
    def run(self) -> CampaignResult:
        """Execute (or resume) the campaign; return the assembled result.

        Raises :class:`~repro.errors.CampaignInterrupted` when stopped by
        a signal or the ``max_points`` budget — the store is then in
        state ``interrupted`` with a journal ``resume`` picks up from.
        """
        num_slots = int(self.store.manifest["num_slots"])
        seed = int(self.store.manifest["seed"])
        figure_ids = [str(f) for f in self.store.manifest["figure_ids"]]
        unknown = [f for f in figure_ids if f not in self.figures]
        if unknown:
            raise CampaignError(
                f"campaign manifest names unknown figures {unknown}; "
                "pass matching specs or use catalogue figure ids"
            )

        points: list[tuple[str, SweepPoint]] = []
        for fid in figure_ids:
            spec = self.figures[fid]
            for point in spec.points(num_slots=num_slots, seed=seed):
                points.append((point_key(point), point))
        self.stats.points_total = len(points)

        checkpoints = self.store.checkpoints()
        done: dict[str, PointRecord] = {}
        jobs: list[_Job] = []
        for key, point in points:
            record = checkpoints.get(key)
            if record is not None:
                done[key] = record
                self.stats.points_skipped += 1
            else:
                jobs.append(_Job(key=key, point=point))
        self.registry.counter("campaign.points_skipped").inc(
            self.stats.points_skipped
        )

        self.store.set_state("running")
        old_handlers = self._install_handlers()
        backoff_rng = make_rng(seed ^ 0xBACC0FF)
        pool = PointPool(self.workers, self.point_timeout)
        exhausted: dict[str, PointRecord] = {}
        try:
            for attempt in range(1, self.max_attempts + 1):
                if not jobs:
                    break
                if attempt > 1:
                    pause = self._backoff_pause(attempt, backoff_rng)
                    for job in jobs:
                        job.backoff_s += pause
                    self.stats.backoff_s += pause
                    self.registry.gauge("campaign.backoff_s").set(pause)
                    self.sleep(pause)
                    self._check_stop(done, pending=len(jobs))
                # The point budget caps *submissions*, not just results —
                # jobs beyond it are deferred untouched so the budget
                # check below stops the run with them still pending.
                run_now, deferred = jobs, []
                if self.max_points is not None:
                    budget_left = max(
                        0, self.max_points - self.stats.points_executed
                    )
                    run_now, deferred = jobs[:budget_left], jobs[budget_left:]
                jobs = self._run_attempt(pool, run_now, attempt, done) + deferred
                self._emit_snapshot(kind="round", round_=attempt, done=done,
                                    pending=len(jobs))
                self._check_stop(done, pending=len(jobs))
            for job in jobs:
                error_type, message = job.last_error
                exhausted[job.key] = PointRecord.failed(
                    job.key,
                    job.point,
                    error_type=error_type,
                    message=message,
                    attempts=job.attempts,
                    elapsed_s=job.elapsed_s,
                    backoff_s=job.backoff_s,
                )
                self.store.append(exhausted[job.key])
                self.stats.points_failed += 1
                self.registry.counter("campaign.points_failed").inc()
        except CampaignInterrupted:
            self.store.set_state("interrupted")
            self._emit_snapshot(kind="interrupted", round_=None, done=done,
                                pending=None)
            raise
        finally:
            pool.close()
            self._restore_handlers(old_handlers)
            self.store.close()

        result = self._assemble(figure_ids, num_slots, seed, done, exhausted)
        self.store.set_state("failed" if exhausted else "complete")
        self._emit_snapshot(kind="final", round_=None, done=done, pending=0)
        return result

    # ------------------------------------------------------------------ #
    # Attempt rounds
    # ------------------------------------------------------------------ #
    def _backoff_pause(self, attempt: int, rng: np.random.Generator) -> float:
        """Seeded equal-jitter exponential backoff for attempt round N."""
        base = min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 2))
        return base * (0.5 + 0.5 * float(rng.random()))

    def _run_attempt(
        self,
        pool: PointPool,
        jobs: list[_Job],
        attempt: int,
        done: dict[str, PointRecord],
    ) -> list[_Job]:
        """Run one attempt round; journal successes; return still-failing.

        A signal stops the pool between outcomes: what already finished
        is still journaled, the rest stays un-journaled and re-runs on
        resume.
        """
        if attempt > 1:
            self.stats.retries += len(jobs)
            self.registry.counter("campaign.retries").inc(len(jobs))
        failed: list[_Job] = []
        try:
            for job, summary, error, elapsed_s in pool.run(
                [(job, job.point) for job in jobs],
                stop=lambda: self._stop_signal is not None,
            ):
                job.attempts += 1
                job.elapsed_s += elapsed_s
                if summary is not None:
                    self._complete(job, summary, elapsed_s, done)
                else:
                    job.last_error = error
                    failed.append(job)
        finally:
            respawns = pool.respawns - self.stats.pool_respawns
            if respawns:
                self.stats.pool_respawns += respawns
                self.registry.counter("campaign.pool_respawns").inc(respawns)
        self._check_stop(done, pending=len(failed))
        return failed

    def _complete(
        self,
        job: _Job,
        summary: SimulationSummary,
        elapsed_s: float,
        done: dict[str, PointRecord],
    ) -> None:
        """Durably journal one finished point before anything else moves."""
        record = PointRecord.done(
            job.key,
            job.point,
            summary,
            attempts=job.attempts,
            elapsed_s=job.elapsed_s,
            backoff_s=job.backoff_s,
        )
        self.store.append(record)
        done[job.key] = record
        self.stats.points_executed += 1
        self.registry.counter("campaign.points_executed").inc()
        self.registry.histogram("campaign.point_elapsed_s").observe(elapsed_s)

    def _check_stop(
        self, done: dict[str, PointRecord], *, pending: int
    ) -> None:
        """Raise CampaignInterrupted if a signal or budget asks us to.

        The budget only interrupts while work is still ``pending`` — a
        campaign whose last point lands exactly on the budget completes
        normally instead of reporting a phantom interruption.
        """
        budget_hit = (
            self.max_points is not None
            and self.stats.points_executed >= self.max_points
            and pending > 0
        )
        if self._stop_signal is None and not budget_hit:
            return
        if self._stop_signal is not None:
            self.stats.interrupted_by = self._stop_signal
            reason = f"signal {signal.Signals(self._stop_signal).name}"
        else:
            reason = f"point budget ({self.max_points}) reached"
        raise CampaignInterrupted(
            f"campaign interrupted by {reason} after "
            f"{len(done)}/{self.stats.points_total} points; journal is "
            f"durable — resume with 'repro-sim campaign resume'",
            points_done=len(done),
            points_total=self.stats.points_total,
        )

    # ------------------------------------------------------------------ #
    # Signals
    # ------------------------------------------------------------------ #
    def _install_handlers(self) -> dict[int, object]:
        """Route SIGINT/SIGTERM to a clean, journal-flushing shutdown."""
        if not self.install_signal_handlers:
            return {}
        old: dict[int, object] = {}

        def _handler(signum: int, _frame: object) -> None:
            self._stop_signal = signum

        for sig in _SHUTDOWN_SIGNALS:
            try:
                old[sig] = signal.signal(sig, _handler)
            except ValueError:
                # Not the main thread: signals stay with the embedder.
                break
        return old

    def _restore_handlers(self, old: dict[int, object]) -> None:
        for sig, handler in old.items():
            signal.signal(sig, handler)  # type: ignore[arg-type]

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    def _emit_snapshot(
        self,
        *,
        kind: str,
        round_: int | None,
        done: dict[str, PointRecord],
        pending: int | None,
    ) -> None:
        if self.metric_sink is None:
            return
        self.metric_sink.emit({
            "kind": f"campaign.{kind}",
            "round": round_,
            "points_done": len(done),
            "points_total": self.stats.points_total,
            "points_pending": pending,
            "stats": self.stats.to_dict(),
            "metrics": self.registry.to_dict(),
        })

    # ------------------------------------------------------------------ #
    # Final assembly
    # ------------------------------------------------------------------ #
    def _assemble(
        self,
        figure_ids: list[str],
        num_slots: int,
        seed: int,
        done: dict[str, PointRecord],
        exhausted: dict[str, PointRecord],
    ) -> CampaignResult:
        """Fold journal records into figures; write the final artifacts.

        Artifact bytes are a pure function of the journaled summaries —
        an interrupted-and-resumed campaign writes files byte-identical
        to an uninterrupted run (the chaos harness asserts this).
        """
        result = CampaignResult(num_slots=num_slots, seed=seed)
        for fid in figure_ids:
            spec = self.figures[fid]
            fig = FigureResult(
                spec=spec, loads=spec.loads, algorithms=spec.algorithms
            )
            for point in spec.points(num_slots=num_slots, seed=seed):
                key = point_key(point)
                cell = (point.algorithm, point.load)
                if key in done:
                    fig.summaries[cell] = done[key].to_summary()
                elif key in exhausted:
                    record = exhausted[key]
                    fig.failures[cell] = FailedPoint(
                        point=point,
                        error_type=record.error_type,
                        message=record.message,
                        attempts=record.attempts,
                        elapsed_s=record.elapsed_s,
                        backoff_s=record.backoff_s,
                    )
            result.figures[fid] = fig
            result.expectations[fid] = check_expectations(fig)
            self.store.csv_dir.mkdir(parents=True, exist_ok=True)
            write_csv(self.store.csv_dir / f"{fid}.csv", fig.all_summaries())
        if exhausted:
            self.store.write_failures_artifact(exhausted.values())
        atomic_write_text(
            self.store.directory / "REPORT.md", render_markdown_report(result)
        )
        return result
