"""repro.lint — AST-based determinism & invariant linter for this repo.

The reproduction's central claim (bit-for-bit identical FIFOMS/iSLIP/
TATRA comparisons from one integer seed) rests on codebase conventions —
all randomness through :mod:`repro.utils.rng`, no wall-clock outside
:mod:`repro.obs`, every switch deep-checkable — that ordinary tests
cannot enforce for code that does not exist yet. This package is a
rule-driven static analyzer (stdlib :mod:`ast` only, no dependencies)
that checks those conventions over the source tree itself.

Entry points::

    from repro.lint import run_lint
    report = run_lint(["src/repro"])        # or: repro-sim lint --strict

The rule catalog lives in docs/static_analysis.md; per-file suppression
is ``# lint: disable=RULE-ID`` (comma-separated, or ``all``).
"""

from repro.lint.base import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    Severity,
    dotted_name,
    finding_sort_key,
    parse_suppressions,
)
from repro.lint.baseline import Baseline, write_baseline
from repro.lint.cache import AnalysisCache, lint_package_signature
from repro.lint.engine import (
    PARSE_RULE_ID,
    LintReport,
    default_rules,
    default_target,
    iter_python_files,
    run_lint,
)
from repro.lint.graph import ProjectGraph, project_graph
from repro.lint.report import format_json, format_rule_catalog, format_text
from repro.lint.sarif import format_sarif, sarif_document

__all__ = [
    "Severity",
    "Finding",
    "ModuleInfo",
    "Project",
    "Rule",
    "dotted_name",
    "finding_sort_key",
    "parse_suppressions",
    "PARSE_RULE_ID",
    "LintReport",
    "default_rules",
    "default_target",
    "iter_python_files",
    "run_lint",
    "format_text",
    "format_json",
    "format_rule_catalog",
    "format_sarif",
    "sarif_document",
    "Baseline",
    "write_baseline",
    "AnalysisCache",
    "lint_package_signature",
    "ProjectGraph",
    "project_graph",
]
