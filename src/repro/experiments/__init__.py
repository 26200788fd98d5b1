"""Experiment harness: one spec per paper figure, a parallel sweep
runner, and qualitative checks of the paper's claims."""

from repro.experiments.spec import FigureSpec, SweepPoint, METRIC_LABELS
from repro.experiments.figures import FIGURES, get_figure
from repro.experiments.sweep import (
    FailedPoint,
    FigureResult,
    PointPool,
    run_figure,
    run_sweep_point,
)
from repro.experiments.paper import check_expectations, ExpectationResult
from repro.experiments.campaign import CampaignResult, render_markdown_report

__all__ = [
    "FigureSpec",
    "SweepPoint",
    "METRIC_LABELS",
    "FIGURES",
    "get_figure",
    "FailedPoint",
    "FigureResult",
    "PointPool",
    "run_figure",
    "run_sweep_point",
    "check_expectations",
    "ExpectationResult",
    "CampaignResult",
    "render_markdown_report",
]
