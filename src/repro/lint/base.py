"""Framework primitives for the ``repro.lint`` static analyzer.

The linter is a rule-driven pass over the project's own source tree using
only the stdlib :mod:`ast` module. This module defines the vocabulary the
rest of the package speaks:

* :class:`Finding` — one diagnostic (rule id, path, line, message,
  severity), the unit of all linter output.
* :class:`ModuleInfo` — one parsed source file plus the metadata rules
  scope themselves by (is it the RNG choke point? an ``obs`` module? a
  test?), including its ``# lint: disable=...`` suppressions.
* :class:`Project` — every :class:`ModuleInfo` of one lint run, for rules
  that reason across files (registry completeness, class hierarchies).
* :class:`Rule` — the contract rules implement: per-module checks via
  :meth:`Rule.check_module`, whole-tree checks via
  :meth:`Rule.check_project`.

Suppression syntax: a comment ``# lint: disable=RNG001`` (comma-separated
ids, or ``all``) anywhere in a file disables those rules *for that file*.
Suppressions are deliberately file-granular — the codebase conventions the
rules encode are module-level properties, and coarse suppressions are
easy to spot in review.
"""

from __future__ import annotations

import abc
import ast
import enum
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Severity",
    "Finding",
    "ModuleInfo",
    "Project",
    "Rule",
    "dotted_name",
    "finding_sort_key",
    "parse_suppressions",
]

#: ``# lint: disable=ID1,ID2`` or ``# lint: disable=all``.
_SUPPRESS_RE = re.compile(r"#[ \t]*lint:[ \t]*disable=([A-Za-z0-9_, \t-]+)")


class Severity(enum.Enum):
    """How bad a finding is; drives exit codes (see ``repro-sim lint``)."""

    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True, slots=True)
class Finding:
    """One diagnostic produced by one rule at one source location."""

    rule_id: str
    path: str
    line: int
    message: str
    severity: Severity = Severity.ERROR

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly representation (used by ``lint --json``)."""
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "severity": self.severity.value,
        }

    def __str__(self) -> str:
        return (
            f"{self.path}:{self.line}: {self.rule_id} "
            f"[{self.severity.value}] {self.message}"
        )


def finding_sort_key(finding: Finding) -> tuple[str, int, str, str]:
    """The canonical finding order: path, line, rule id, message.

    Every consumer (text report, JSON, SARIF, baselines) sorts by this
    one key, so lint output is byte-stable across runs regardless of
    rule execution order, cache hits, or dict iteration — diffable in
    CI and safe to snapshot. The message tiebreaker matters when one
    rule fires twice on one line (e.g. two bad arguments in one call).
    """
    return (finding.path, finding.line, finding.rule_id, finding.message)


def parse_suppressions(source: str) -> frozenset[str]:
    """Collect every rule id disabled by ``# lint: disable=...`` comments.

    Returns the union over all such comments in ``source``; the special id
    ``all`` disables every rule for the file.
    """
    ids: set[str] = set()
    for match in _SUPPRESS_RE.finditer(source):
        for raw in match.group(1).split(","):
            rule_id = raw.strip()
            if rule_id:
                ids.add(rule_id)
    return frozenset(ids)


def dotted_name(node: ast.AST) -> str | None:
    """Resolve ``a.b.c`` attribute chains to the string ``"a.b.c"``.

    Returns ``None`` for anything that is not a plain name/attribute chain
    (subscripts, calls, literals), which rules treat as "not a match".
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is not None:
            return f"{base}.{node.attr}"
    return None


@dataclass(slots=True)
class ModuleInfo:
    """One parsed source file plus the metadata rules scope by.

    ``path`` is the display path (as reported in findings); ``abspath`` is
    the resolved POSIX path used for scope checks, so exemptions like
    "only ``repro/utils/rng.py`` may create generators" hold no matter
    which directory the linter was invoked from.
    """

    path: str
    abspath: str
    source: str
    tree: ast.Module
    suppressed: frozenset[str] = field(default_factory=frozenset)

    @classmethod
    def from_source(cls, source: str, path: str | Path) -> "ModuleInfo":
        """Parse ``source`` as the file ``path`` (raises ``SyntaxError``)."""
        p = Path(path)
        abspath = p.resolve().as_posix() if p.exists() else p.as_posix()
        return cls(
            path=Path(path).as_posix(),
            abspath=abspath,
            source=source,
            tree=ast.parse(source, filename=str(path)),
            suppressed=parse_suppressions(source),
        )

    # ------------------------------------------------------------------ #
    # Scope predicates rules share
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """File basename, e.g. ``"engine.py"``."""
        return self.abspath.rsplit("/", 1)[-1]

    @property
    def stem(self) -> str:
        """Module name without extension, e.g. ``"engine"``."""
        return self.name.removesuffix(".py")

    @property
    def is_rng_module(self) -> bool:
        """The one sanctioned generator-construction choke point."""
        return self.abspath.endswith("repro/utils/rng.py")

    @property
    def is_obs_module(self) -> bool:
        """Observability code — the only package allowed wall-clock."""
        return "repro/obs/" in self.abspath

    @property
    def is_test_module(self) -> bool:
        """Test/benchmark files get looser RNG and clock discipline."""
        if self.name.startswith(("test_", "bench_")) or self.stem == "conftest":
            return True
        parts = self.abspath.split("/")
        return "tests" in parts or "benchmarks" in parts

    @property
    def is_private_module(self) -> bool:
        """Underscore-prefixed modules (``_version.py``, ``__init__.py``)."""
        return self.name.startswith("_")

    def is_suppressed(self, rule_id: str) -> bool:
        """Whether this file disables ``rule_id`` (or ``all``)."""
        return rule_id in self.suppressed or "all" in self.suppressed


@dataclass(slots=True)
class Project:
    """Every module of one lint run, for cross-file rules."""

    modules: list[ModuleInfo]
    #: Memoized :class:`~repro.lint.graph.ProjectGraph` (built lazily by
    #: :func:`repro.lint.graph.project_graph` so the flow-aware rules
    #: share one symbol-table/import-graph build per run).
    graph_cache: object | None = None

    def find(self, suffix: str) -> ModuleInfo | None:
        """First module whose resolved path ends with ``suffix``."""
        for mod in self.modules:
            if mod.abspath.endswith(suffix):
                return mod
        return None


class Rule(abc.ABC):
    """One named check. Subclasses override at least one ``check_*`` hook.

    ``rule_id`` is the stable identifier used in findings and suppression
    comments; ``title``/``rationale`` feed ``lint --list-rules`` and the
    rule catalog in docs/static_analysis.md.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""
    severity: Severity = Severity.ERROR

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Yield findings for one file (default: none)."""
        return iter(())

    def check_project(self, project: Project) -> Iterator[Finding]:
        """Yield findings needing the whole tree (default: none)."""
        return iter(())

    # ------------------------------------------------------------------ #
    def finding(
        self,
        module: ModuleInfo,
        node: ast.AST | int,
        message: str | None = None,
    ) -> Finding:
        """Build a :class:`Finding` at ``node`` (or a literal line number)."""
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Finding(
            rule_id=self.rule_id,
            path=module.path,
            line=line,
            message=message if message is not None else self.title,
            severity=self.severity,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.rule_id}>"
