"""Lint-run orchestration: file discovery, rule execution, reporting.

:func:`run_lint` is the single entry point the CLI and the self-check
test share: resolve paths to ``.py`` files, parse each one, run every
rule (per-module rules against unsuppressed files, project rules once
over the whole tree), and return a :class:`LintReport` with findings
sorted by location.

Files that fail to parse are not a crash — they surface as ``PARSE``
findings so a syntax error in one module cannot hide findings in the
rest of the tree.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.base import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    Severity,
    finding_sort_key,
)
from repro.lint.rules_determinism import NoUnsortedSetIterationRule, NoWallClockRule
from repro.lint.rules_flow import (
    GeneratorIntoWorkerRule,
    GeneratorProvenanceRule,
    OrderFlowRule,
)
from repro.lint.rules_kernel import KernelClosurePurityRule
from repro.lint.rules_rng import NoGlobalNumpySeedRule, NoStdlibRandomRule
from repro.lint.rules_sanitize import SubmitThenMutateRule
from repro.lint.rules_structure import PublicModuleAllRule

__all__ = [
    "PARSE_RULE_ID",
    "LintReport",
    "default_rules",
    "default_target",
    "iter_python_files",
    "run_lint",
]

#: Pseudo rule id attached to files the parser rejects.
PARSE_RULE_ID = "PARSE"


def default_rules() -> tuple[Rule, ...]:
    """Fresh instances of the full built-in rule set, in catalog order."""
    return (
        NoGlobalNumpySeedRule(),
        NoStdlibRandomRule(),
        GeneratorProvenanceRule(),
        GeneratorIntoWorkerRule(),
        NoWallClockRule(),
        NoUnsortedSetIterationRule(),
        OrderFlowRule(),
        PublicModuleAllRule(),
        KernelClosurePurityRule(),
        SubmitThenMutateRule(),
    )


def default_target() -> Path:
    """The installed ``repro`` package source tree (works from any cwd)."""
    return Path(__file__).resolve().parents[1]


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories to ``.py`` files, sorted, deduplicated.

    Directory expansion skips ``__pycache__`` and any ``.``-prefixed
    directory (``.venv``, ``.git``, ...) — linting a
    checkout root must not descend into tool state or vendored
    environments. A hidden directory passed *explicitly* is still
    expanded (the skip applies below the given root, not to it).
    Overlapping targets (``src`` and ``src/repro``, ``./x.py`` and
    ``x.py``) dedupe by resolved path; a path that does not exist raises
    ``FileNotFoundError`` (a typo should not lint an empty set).
    """
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise FileNotFoundError(f"lint target does not exist: {path}")
        if path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if "__pycache__" not in p.parts
                and not any(
                    part.startswith(".")
                    for part in p.relative_to(path).parts[:-1]
                )
            )
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


@dataclass(slots=True)
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding]
    files_scanned: int
    paths: tuple[str, ...] = ()
    rule_ids: tuple[str, ...] = field(default_factory=tuple)

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity is Severity.ERROR)

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings if f.severity is Severity.WARNING)

    @property
    def ok(self) -> bool:
        """Clean tree: nothing at all was flagged."""
        return not self.findings

    def exit_code(self, strict: bool = False) -> int:
        """0 when acceptable; 1 otherwise. ``strict`` fails warnings too."""
        if strict:
            return 0 if self.ok else 1
        return 0 if self.errors == 0 else 1

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly representation (used by ``lint --json``)."""
        return {
            "paths": list(self.paths),
            "files_scanned": self.files_scanned,
            "rules": list(self.rule_ids),
            "errors": self.errors,
            "warnings": self.warnings,
            "findings": [f.to_dict() for f in self.findings],
        }


def _display_path(path: Path) -> str:
    """Path relative to the cwd when possible, else as given."""
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def _parse_failure(display: str, exc: Exception) -> Finding:
    line = getattr(exc, "lineno", None) or 1
    return Finding(
        rule_id=PARSE_RULE_ID,
        path=display,
        line=line,
        message=f"cannot parse file: {exc}",
        severity=Severity.ERROR,
    )


def _module_findings(module: ModuleInfo, rules: Sequence[Rule]) -> list[Finding]:
    out: list[Finding] = []
    for rule in rules:
        if module.is_suppressed(rule.rule_id):
            continue
        out.extend(rule.check_module(module))
    return out


def run_lint(
    paths: Sequence[str | Path] | None = None,
    *,
    rules: Sequence[Rule] | None = None,
) -> LintReport:
    """Lint ``paths`` (default: the installed ``repro`` source tree)."""
    targets = list(paths) if paths else [default_target()]
    active = tuple(rules) if rules is not None else default_rules()

    findings: list[Finding] = []
    modules: list[ModuleInfo] = []
    files_scanned = 0
    for file_path in iter_python_files(targets):
        files_scanned += 1
        display = _display_path(file_path)
        try:
            info = ModuleInfo.from_source(file_path.read_bytes().decode(), file_path)
        except (OSError, SyntaxError, ValueError) as exc:
            findings.append(_parse_failure(display, exc))
            continue
        info.path = display
        modules.append(info)
        findings.extend(_module_findings(info, active))

    project = Project(modules=modules)
    owners = {m.path: m for m in modules}
    for rule in active:
        for finding in rule.check_project(project):
            owner = owners.get(finding.path)
            if owner is None or not owner.is_suppressed(rule.rule_id):
                findings.append(finding)

    findings.sort(key=finding_sort_key)
    return LintReport(
        findings=findings,
        files_scanned=files_scanned,
        paths=tuple(str(t) for t in targets),
        rule_ids=tuple(r.rule_id for r in active),
    )
