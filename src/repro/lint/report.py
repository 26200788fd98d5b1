"""Render a :class:`~repro.lint.engine.LintReport` for humans or machines.

Two formats: a compact ``path:line: ID [severity] message`` text listing
(with a one-line summary, mirroring familiar linter output) and a JSON
document for CI annotations and tooling.
"""

from __future__ import annotations

import json
from collections.abc import Iterable

from repro.lint.base import Rule, finding_sort_key
from repro.lint.engine import LintReport

__all__ = ["format_text", "format_json", "format_rule_catalog"]


def format_text(report: LintReport) -> str:
    """One line per finding plus a summary tail line.

    Findings are re-sorted by the canonical key on the way out, so the
    listing stays byte-stable even for reports assembled by hand (the
    engine already sorts its own).
    """
    lines = [str(f) for f in sorted(report.findings, key=finding_sort_key)]
    noun = "file" if report.files_scanned == 1 else "files"
    if report.ok:
        lines.append(f"clean: {report.files_scanned} {noun}, no findings")
    else:
        lines.append(
            f"{report.errors} error(s), {report.warnings} warning(s) "
            f"in {report.files_scanned} {noun}"
        )
    return "\n".join(lines)


def format_json(report: LintReport) -> str:
    """The report as an indented JSON document."""
    return json.dumps(report.to_dict(), indent=2)


def format_rule_catalog(rules: Iterable[Rule]) -> str:
    """``--list-rules`` output: id, severity, title, rationale per rule."""
    blocks = []
    for rule in rules:
        blocks.append(
            f"{rule.rule_id} [{rule.severity.value}] {rule.title}\n"
            f"    {rule.rationale}"
        )
    return "\n".join(blocks)
