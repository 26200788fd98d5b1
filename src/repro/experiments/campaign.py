"""Campaign result and report: a set of figures rendered as one document.

:class:`CampaignResult` holds the figure sweeps and paper-claim checks of
one campaign (default figure set: the five paper figures);
:func:`render_markdown_report` renders it as a single self-contained
Markdown report — the machine-written counterpart of EXPERIMENTS.md,
stamped with the exact configuration used. Execution lives in
:mod:`repro.campaign` (``repro-sim campaign run``), which journals every
point and writes the report and per-figure CSVs into its store.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.paper import ExpectationResult
from repro.experiments.spec import METRIC_LABELS
from repro.experiments.sweep import FigureResult

__all__ = ["CampaignResult", "PAPER_FIGURES", "render_markdown_report"]

#: The paper's evaluation figures, in order.
PAPER_FIGURES = ("fig4", "fig5", "fig6", "fig7", "fig8")


@dataclass(slots=True)
class CampaignResult:
    """Everything one campaign produced."""

    num_slots: int
    seed: int
    figures: dict[str, FigureResult] = field(default_factory=dict)
    expectations: dict[str, list[ExpectationResult]] = field(default_factory=dict)

    @property
    def claims_total(self) -> int:
        return sum(len(v) for v in self.expectations.values())

    @property
    def claims_passed(self) -> int:
        return sum(e.passed for v in self.expectations.values() for e in v)


def render_markdown_report(campaign: CampaignResult) -> str:
    """Render the campaign as a self-contained Markdown document."""
    lines = [
        "# Reproduction report",
        "",
        f"Configuration: {campaign.num_slots} slots per point, base seed "
        f"{campaign.seed}.",
        "",
        f"**Paper claims: {campaign.claims_passed} / {campaign.claims_total} "
        "PASS.**",
        "",
    ]
    for fid, fig in campaign.figures.items():
        lines.append(f"## {fig.spec.title}")
        lines.append("")
        lines.append(fig.spec.description)
        lines.append("")
        for metric in fig.spec.metrics:
            series = fig.series(metric)
            lines.append(f"### {METRIC_LABELS[metric]}")
            lines.append("")
            header = "| load | " + " | ".join(series) + " |"
            rule = "|" + "---|" * (len(series) + 1)
            lines.extend([header, rule])
            for k, load in enumerate(fig.loads):
                cells = []
                for alg in series:
                    v = series[alg][k]
                    cells.append(
                        "unstable" if v == float("inf") else f"{v:.3g}"
                    )
                lines.append(f"| {load} | " + " | ".join(cells) + " |")
            lines.append("")
        checks = campaign.expectations.get(fid, [])
        if checks:
            lines.append("### Paper claims")
            lines.append("")
            for e in checks:
                mark = "✅" if e.passed else "❌"
                lines.append(f"* {mark} {e.claim} — {e.detail}")
            lines.append("")
    return "\n".join(lines)
