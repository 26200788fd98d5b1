"""Lint-run orchestration: file discovery, rule execution, reporting.

:func:`run_lint` is the single entry point the CLI and the self-check
test share: resolve paths to ``.py`` files, parse each one, run every
rule (per-module rules against unsuppressed files, project rules once
over the whole tree), and return a :class:`LintReport` with findings
sorted by location.

Two optional layers wrap the core pass:

* an :class:`~repro.lint.cache.AnalysisCache` (``cache_dir=``) keyed on
  file content makes re-runs incremental — an unchanged file's
  module-rule findings are served from cache without re-parsing, and a
  byte-identical tree serves the whole report (zero files re-analyzed);
* a :class:`~repro.lint.baseline.Baseline` (``baseline=``) subtracts
  known pre-existing findings after the run, so a new rule can gate new
  violations immediately while legacy ones are ratcheted down.

Files that fail to parse are not a crash — they surface as ``PARSE``
findings so a syntax error in one module cannot hide findings in the
rest of the tree.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.lint.base import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    Severity,
    finding_sort_key,
)
from repro.lint.cache import AnalysisCache, file_digest, lint_package_signature
from repro.lint.rules_determinism import NoUnsortedSetIterationRule, NoWallClockRule
from repro.lint.rules_errors import ExceptHygieneRule
from repro.lint.rules_flow import (
    GeneratorIntoWorkerRule,
    GeneratorProvenanceRule,
    OrderFlowRule,
)
from repro.lint.rules_kernel import (
    KernelClosurePurityRule,
    RegistryBackendPairingRule,
    VectorizedEntryPointRule,
)
from repro.lint.rules_rng import (
    NoGlobalNumpySeedRule,
    NoLegacyNumpyRandomRule,
    NoStdlibRandomRule,
    NoUnseededGeneratorRule,
)
from repro.lint.rules_sanitize import (
    InvariantCoverageRule,
    StateSeamOwnershipRule,
    SubmitThenMutateRule,
)
from repro.lint.rules_structure import (
    KernelHotPathImportRule,
    PublicModuleAllRule,
    SchedulerRegistryRule,
    SwitchInvariantsRule,
)

if TYPE_CHECKING:
    from repro.lint.baseline import Baseline

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
        NoLegacyNumpyRandomRule(),
        NoStdlibRandomRule(),
        NoUnseededGeneratorRule(),
        GeneratorProvenanceRule(),
        GeneratorIntoWorkerRule(),
        NoWallClockRule(),
        NoUnsortedSetIterationRule(),
        OrderFlowRule(),
        SwitchInvariantsRule(),
        SchedulerRegistryRule(),
        PublicModuleAllRule(),
        KernelHotPathImportRule(),
        VectorizedEntryPointRule(),
        RegistryBackendPairingRule(),
        KernelClosurePurityRule(),
        ExceptHygieneRule(),
        StateSeamOwnershipRule(),
        InvariantCoverageRule(),
        SubmitThenMutateRule(),
    )


def default_target() -> Path:
    """The installed ``repro`` package source tree (works from any cwd)."""
    return Path(__file__).resolve().parents[1]


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories to ``.py`` files, sorted, deduplicated.

    Directory expansion skips ``__pycache__`` and any ``.``-prefixed
    directory (``.venv``, ``.git``, ``.lint-cache``, ...) — linting a
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
    #: Files whose module rules actually ran this run (cache misses).
    #: Parsing an unchanged file for a cross-file pass does not count —
    #: this tracks per-file analysis work, the incremental win.
    files_reanalyzed: int = 0
    #: Findings subtracted by the baseline (pre-existing, not shown).
    baselined: int = 0

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
            "files_reanalyzed": self.files_reanalyzed,
            "baselined": self.baselined,
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
    cache_dir: str | Path | None = None,
    baseline: "Baseline | None" = None,
) -> LintReport:
    """Lint ``paths`` (default: the installed ``repro`` source tree).

    With ``cache_dir``, per-file and whole-project findings are reused
    across runs keyed purely on content hashes (see
    :mod:`repro.lint.cache`); the cache stores *unfiltered* findings, so
    the same cache serves runs with different baselines. With
    ``baseline``, matching findings are subtracted after the run and
    counted in :attr:`LintReport.baselined`.
    """
    targets = list(paths) if paths else [default_target()]
    active = tuple(rules) if rules is not None else default_rules()
    rule_ids = tuple(r.rule_id for r in active)

    cache = (
        AnalysisCache(cache_dir, lint_package_signature(rule_ids))
        if cache_dir is not None
        else None
    )

    # Pass 1 — read + hash every file, consult the per-file cache.
    records: list[tuple[Path, str, str, bytes, str, list[Finding] | None]] = []
    findings: list[Finding] = []
    unreadable = 0  # files we could not even hash -> no project key
    for file_path in iter_python_files(targets):
        display = _display_path(file_path)
        abspath = file_path.resolve().as_posix()
        try:
            data = file_path.read_bytes()
        except OSError as exc:
            findings.append(_parse_failure(display, exc))
            unreadable += 1
            continue
        sha = file_digest(data)
        cached = cache.lookup_file(abspath, sha) if cache is not None else None
        records.append((file_path, display, abspath, data, sha, cached))
    files_scanned = len(records) + unreadable

    project_key = (
        AnalysisCache.project_key([(r[2], r[4]) for r in records])
        if cache is not None and unreadable == 0
        else None
    )
    project_cached = (
        cache.lookup_project(project_key) if project_key is not None else None
    )

    # Pass 2 — per-file findings. Parsing is needed for a file when its
    # per-file entry missed, or when the project rules must run (they
    # see the whole tree). Module rules run only on cache misses.
    modules: list[ModuleInfo] = []
    files_reanalyzed = 0
    for file_path, display, abspath, data, sha, cached in records:
        if cached is not None and project_cached is not None:
            findings.extend(cached)
            cache.store_file(abspath, sha, cached)
            continue
        try:
            info = ModuleInfo.from_source(data.decode(), file_path)
        except (SyntaxError, ValueError) as exc:
            file_findings = cached
            if file_findings is None:
                file_findings = [_parse_failure(display, exc)]
                files_reanalyzed += 1
            findings.extend(file_findings)
            if cache is not None:
                cache.store_file(abspath, sha, file_findings)
            continue
        info.path = display
        modules.append(info)
        if cached is not None:
            file_findings = cached
        else:
            file_findings = _module_findings(info, active)
            files_reanalyzed += 1
        findings.extend(file_findings)
        if cache is not None:
            cache.store_file(abspath, sha, file_findings)

    # Pass 3 — project rules (served whole from cache on a key hit).
    if project_cached is not None:
        project_findings = project_cached
    else:
        project = Project(modules=modules)
        suppressions = {m.path: m for m in modules}
        project_findings = []
        for rule in active:
            for finding in rule.check_project(project):
                owner = suppressions.get(finding.path)
                if owner is not None and owner.is_suppressed(rule.rule_id):
                    continue
                project_findings.append(finding)
    if cache is not None and project_key is not None:
        cache.store_project(project_key, project_findings)
    findings.extend(project_findings)

    if cache is not None:
        cache.save()

    findings.sort(key=finding_sort_key)

    baselined = 0
    if baseline is not None:
        kept = [f for f in findings if not baseline.matches(f)]
        baselined = len(findings) - len(kept)
        findings = kept

    return LintReport(
        findings=findings,
        files_scanned=files_scanned,
        paths=tuple(str(t) for t in targets),
        rule_ids=rule_ids,
        files_reanalyzed=files_reanalyzed,
        baselined=baselined,
    )
