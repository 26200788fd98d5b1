"""Structural-convention rules.

These keep the extension points honest as the scheduler/switch roster
grows: every concrete switch stays deep-checkable via
``check_invariants()``, every scheduler module is reachable through the
name registry the CLI and experiment harness use, and every public module
declares its surface with ``__all__`` (which the docs meta-tests lean on).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from repro.lint.base import Finding, ModuleInfo, Project, Rule, dotted_name

__all__ = [
    "SwitchInvariantsRule",
    "SchedulerRegistryRule",
    "PublicModuleAllRule",
    "KernelHotPathImportRule",
]

_ABSTRACT_BASES = frozenset({"ABC", "ABCMeta", "Protocol"})
_ABSTRACT_DECORATORS = frozenset({"abstractmethod", "abstractproperty"})


@dataclass(slots=True)
class _ClassDecl:
    """What STRUCT rules need to know about one class statement."""

    name: str
    bases: tuple[str, ...]
    defines_check_invariants: bool
    is_abstract: bool
    module: ModuleInfo
    lineno: int


def _last_segment(dotted: str | None) -> str | None:
    return dotted.rsplit(".", 1)[-1] if dotted else None


def _scan_classes(module: ModuleInfo) -> Iterator[_ClassDecl]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = tuple(
            seg for seg in (_last_segment(dotted_name(b)) for b in node.bases) if seg
        )
        defines = False
        abstract = any(b in _ABSTRACT_BASES for b in bases)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt.name == "check_invariants":
                    defines = True
                for deco in stmt.decorator_list:
                    if _last_segment(dotted_name(deco)) in _ABSTRACT_DECORATORS:
                        abstract = True
        yield _ClassDecl(
            name=node.name,
            bases=bases,
            defines_check_invariants=defines,
            is_abstract=abstract,
            module=module,
            lineno=node.lineno,
        )


class SwitchInvariantsRule(Rule):
    """STR001 — concrete switches must override ``check_invariants``."""

    rule_id = "STR001"
    title = "Switch subclass without check_invariants()"
    rationale = (
        "The sanitizer's deep checks (fanout-counter conservation, "
        "buffer/VOQ agreement) only verify what a switch implements; "
        "BaseSwitch.check_invariants is a silent no-op, so a subclass that "
        "skips the override ships unverifiable state."
    )

    #: Root of the switch hierarchy (its own no-op override doesn't count).
    root = "BaseSwitch"

    def check_project(self, project: Project) -> Iterator[Finding]:
        table: dict[str, _ClassDecl] = {}
        for module in project.modules:
            for decl in _scan_classes(module):
                table.setdefault(decl.name, decl)

        def derives_from_root(name: str, seen: frozenset[str]) -> bool:
            if name == self.root:
                return True
            decl = table.get(name)
            if decl is None or name in seen:
                return False
            return any(
                derives_from_root(b, seen | {name}) for b in decl.bases
            )

        def covered(name: str, seen: frozenset[str]) -> bool:
            """Does ``name`` or an ancestor below the root define the check?"""
            if name == self.root:
                return False
            decl = table.get(name)
            if decl is None or name in seen:
                return False
            if decl.defines_check_invariants:
                return True
            return any(covered(b, seen | {name}) for b in decl.bases)

        for decl in table.values():
            if decl.name == self.root or decl.is_abstract:
                continue
            if not any(derives_from_root(b, frozenset()) for b in decl.bases):
                continue
            if not covered(decl.name, frozenset()):
                yield self.finding(
                    decl.module,
                    decl.lineno,
                    f"{decl.name} subclasses {self.root} but neither it nor "
                    "an ancestor overrides check_invariants(); its internal "
                    "state is unverifiable",
                )


class SchedulerRegistryRule(Rule):
    """STR002 — scheduler modules must be wired into the registry."""

    rule_id = "STR002"
    title = "scheduler module not imported by the registry"
    rationale = (
        "The CLI, experiment harness and benchmarks only see algorithms "
        "registered in repro.schedulers.registry; a scheduler module the "
        "registry never imports is dead code the comparison figures "
        "silently omit."
    )

    _EXEMPT_STEMS = frozenset({"__init__", "base", "registry"})

    def check_project(self, project: Project) -> Iterator[Finding]:
        registry = project.find("repro/schedulers/registry.py")
        if registry is None:
            return  # partial lint run without the registry: nothing to check
        imported: set[str] = set()
        for node in ast.walk(registry.tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
                # ``from repro.schedulers import tatra`` style
                for alias in node.names:
                    imported.add(f"{node.module}.{alias.name}")
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        for module in project.modules:
            if "repro/schedulers/" not in module.abspath:
                continue
            if module.stem in self._EXEMPT_STEMS:
                continue
            if f"repro.schedulers.{module.stem}" not in imported:
                yield self.finding(
                    module,
                    1,
                    f"repro.schedulers.{module.stem} is never imported by "
                    "repro/schedulers/registry.py; register a factory so the "
                    "CLI and experiments can reach it",
                )


class PublicModuleAllRule(Rule):
    """STR003 — public modules declare ``__all__``."""

    rule_id = "STR003"
    title = "public module without __all__"
    rationale = (
        "__all__ is the package's declared surface: the docs meta-tests "
        "and `from module import *` hygiene both key off it, and an "
        "undeclared surface grows accidental API."
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.is_private_module or module.is_test_module:
            return
        for node in module.tree.body:
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    return
        yield self.finding(
            module,
            1,
            f"{module.name} defines no __all__; declare the module's public "
            "surface explicitly",
        )


class KernelHotPathImportRule(Rule):
    """STR004 — kernel hot-path modules stay free of per-cell objects."""

    rule_id = "STR004"
    title = "per-cell object import in a kernel hot-path module"
    rationale = (
        "repro.kernel exists to keep per-cell Python objects off the "
        "vectorized hot path; a kernel module importing the object-model "
        "types (cells, VOQ structures, buffers, preprocess) reintroduces "
        "pointer-chasing state the backend seam was built to exclude. "
        "Only the reference object backend may bridge the two worlds."
    )

    #: Object-model modules whose types must not leak into the kernel.
    _FORBIDDEN = (
        "repro.core.buffers",
        "repro.core.cells",
        "repro.core.preprocess",
        "repro.core.voq",
    )

    #: The reference backend is the deliberate bridge to the object model.
    _EXEMPT_STEMS = frozenset({"object_backend"})

    def _forbidden_target(self, dotted: str) -> str | None:
        """The forbidden module ``dotted`` refers to, or None."""
        for target in self._FORBIDDEN:
            if dotted == target or dotted.startswith(target + "."):
                return target
        return None

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if "repro/kernel/" not in module.abspath:
            return
        if module.stem in self._EXEMPT_STEMS:
            return
        for node in ast.walk(module.tree):
            dotted_targets: list[tuple[str, int]] = []
            if isinstance(node, ast.ImportFrom) and node.module:
                dotted_targets.append((node.module, node.lineno))
            elif isinstance(node, ast.Import):
                dotted_targets.extend(
                    (alias.name, node.lineno) for alias in node.names
                )
            for dotted, lineno in dotted_targets:
                target = self._forbidden_target(dotted)
                if target is not None:
                    yield self.finding(
                        module,
                        lineno,
                        f"kernel module {module.name} imports {target} "
                        "(per-cell object model); only the 'object' backend "
                        "may touch per-cell types",
                    )
