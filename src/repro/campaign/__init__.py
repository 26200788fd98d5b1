"""Durable campaign execution: checkpointed resume, crash recovery.

The ROADMAP's always-on campaign service needs sweeps that survive
anything — a SIGKILL, a full disk, an impatient operator. This package
is that durability layer on top of
:mod:`repro.experiments` (which stays purely in-memory):

* :class:`~repro.campaign.store.CampaignStore` — a content-addressed
  on-disk store (manifest + fsynced JSONL journal) keyed by point config
  + code signature. See docs/campaigns.md for the layout and schema.
* :class:`~repro.campaign.supervisor.CampaignSupervisor` — the
  durable retry policy: skip-on-resume, journal-before-anything-else,
  seeded backoff, clean SIGINT/SIGTERM shutdown, ``campaign.*`` metrics
  through the sink layer. The points themselves run on
  :class:`repro.experiments.sweep.PointPool`, the one watched executor
  (timeout, worker death, reaping) that ``run_figure`` uses too.
* :func:`run_durable_campaign` / :func:`resume_campaign` /
  :func:`campaign_status` — the functional API behind the
  ``repro-sim campaign run/resume/status`` CLI.

The invariant everything here serves: a campaign interrupted at *any*
moment and resumed produces byte-identical CSV/summary artifacts to an
uninterrupted run, re-executing zero already-journaled points
(``tests/test_campaign_chaos.py`` kills real processes to prove it).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import Any

from repro.errors import CampaignError
from repro.experiments.campaign import PAPER_FIGURES, CampaignResult
from repro.experiments.figures import FIGURES
from repro.experiments.spec import FigureSpec
from repro.campaign.store import (
    CampaignStore,
    PointRecord,
    code_signature,
    point_key,
)
from repro.campaign.supervisor import CampaignStats, CampaignSupervisor

__all__ = [
    "CampaignStore",
    "CampaignStats",
    "CampaignSupervisor",
    "PointRecord",
    "code_signature",
    "point_key",
    "run_durable_campaign",
    "resume_campaign",
    "campaign_status",
]


def _resolve_figures(
    figure_ids: Sequence[str],
    figures: Mapping[str, FigureSpec] | None,
) -> dict[str, FigureSpec]:
    catalogue: Mapping[str, FigureSpec] = (
        figures if figures is not None else FIGURES
    )
    unknown = [f for f in figure_ids if f not in catalogue]
    if unknown:
        raise CampaignError(f"unknown figures {unknown}")
    return {fid: catalogue[fid] for fid in figure_ids}


def run_durable_campaign(
    directory: str | Path,
    figure_ids: Sequence[str] = PAPER_FIGURES,
    *,
    num_slots: int = 30_000,
    seed: int = 2004,
    figures: Mapping[str, FigureSpec] | None = None,
    **execution: Any,
) -> tuple[CampaignResult, CampaignStats]:
    """Run a campaign with a durable checkpoint store at ``directory``.

    Creates the store (or matches the one already there), then resumes
    it: ``execution`` takes :func:`resume_campaign`'s execution knobs —
    ``workers``, ``point_timeout``, ``max_attempts``, ``backoff_base``,
    ``backoff_cap``, ``metric_sink``, ``max_points``,
    ``install_signal_handlers`` — with its defaults; anything else is a
    ``TypeError``.

    Re-invoking on a directory that already holds the *same* campaign
    configuration resumes it (completed points are skipped); a
    conflicting configuration raises
    :class:`~repro.errors.CampaignError`. Raises
    :class:`~repro.errors.CampaignInterrupted` on SIGINT/SIGTERM or when
    ``max_points`` newly executed points complete — the store is then
    resumable. ``figures`` overrides the catalogue (tests inject tiny
    specs); production callers use catalogue ids.
    """
    if not figure_ids:
        raise CampaignError("no figures requested")
    _resolve_figures(figure_ids, figures)  # before a store exists to regret
    CampaignStore.create(
        directory, figure_ids=figure_ids, num_slots=num_slots, seed=seed
    )
    return resume_campaign(directory, figures=figures, **execution)


def resume_campaign(
    directory: str | Path,
    *,
    workers: int | None = None,
    point_timeout: float | None = None,
    max_attempts: int = 3,
    backoff_base: float = 0.5,
    backoff_cap: float = 30.0,
    metric_sink: object | None = None,
    max_points: int | None = None,
    figures: Mapping[str, FigureSpec] | None = None,
    install_signal_handlers: bool = True,
) -> tuple[CampaignResult, CampaignStats]:
    """Resume the campaign stored at ``directory`` from its journal.

    The campaign's configuration (figures, slots, seed) comes from the
    stored manifest — only execution knobs (workers, timeouts, retry
    policy) can differ between the original run and a resume, none of
    which affect result bytes. Completed points are replayed from the
    journal; failed and missing points are (re-)executed. If the code
    signature changed since the original run, every point's content
    address changes with it and the whole campaign recomputes — stale
    checkpoints are structurally unreachable.
    """
    store = CampaignStore.open(directory)
    specs = _resolve_figures(
        [str(f) for f in store.manifest["figure_ids"]], figures
    )
    supervisor = CampaignSupervisor(
        store,
        specs,
        workers=workers,
        point_timeout=point_timeout,
        max_attempts=max_attempts,
        backoff_base=backoff_base,
        backoff_cap=backoff_cap,
        metric_sink=metric_sink,
        max_points=max_points,
        install_signal_handlers=install_signal_handlers,
    )
    return supervisor.run(), supervisor.stats


def campaign_status(
    directory: str | Path,
    *,
    figures: Mapping[str, FigureSpec] | None = None,
) -> dict[str, object]:
    """Inspect a campaign store without executing anything.

    Returns a JSON-friendly dict: manifest state, code-signature
    currency, and per-figure done/failed/pending counts (pending needs
    the figure spec to know the grid size; unknown figure ids report
    ``None`` there).
    """
    store = CampaignStore.open(directory)
    figure_ids = [str(f) for f in store.manifest["figure_ids"]]
    catalogue: Mapping[str, FigureSpec] = (
        figures if figures is not None else FIGURES
    )
    checkpoints = store.checkpoints()
    failures = store.failures()
    num_slots = int(store.manifest["num_slots"])
    seed = int(store.manifest["seed"])
    signature_current = store.signature_current()
    per_figure: dict[str, dict[str, object]] = {}
    for fid in figure_ids:
        done = sum(1 for r in checkpoints.values() if r.figure_id == fid)
        failed = sum(1 for r in failures.values() if r.figure_id == fid)
        total: int | None = None
        pending: int | None = None
        spec = catalogue.get(fid)
        if spec is not None:
            points = spec.points(num_slots=num_slots, seed=seed)
            total = len(points)
            if signature_current:
                keyed = {point_key(p) for p in points}
                pending = sum(1 for k in keyed if k not in checkpoints)
            else:
                # Stale signature: every checkpoint misses its new key.
                pending = total
        per_figure[fid] = {
            "done": done,
            "failed": failed,
            "total": total,
            "pending": pending,
        }
    return {
        "directory": str(store.directory),
        "state": store.state,
        "figure_ids": figure_ids,
        "num_slots": num_slots,
        "seed": seed,
        "signature_current": signature_current,
        "points_done": len(checkpoints),
        "points_failed": len(failures),
        "figures": per_figure,
    }
