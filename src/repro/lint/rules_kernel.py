"""Kernel-backend contract rules (KB family).

The kernel seam turned the paper's bit-exactness claims into
*conventions*: the registry decides which pairings may see a non-object
backend, and the vectorized hot path stays free of per-cell objects.
Each convention spans modules, so the per-file rules cannot see a
violation; these rules reason over the
:class:`~repro.lint.graph.ProjectGraph` instead.

* **KB002** — registry factories must match their switch's seam: a
  factory that guards with ``_discard_backend`` (single-bodied: validate
  and drop) while building a switch whose ``__init__`` accepts
  ``backend`` silently blocks declared support, and a factory that
  forwards ``**kwargs`` to a seamless switch without the guard turns
  ``--backend vectorized`` into an opaque ``TypeError``.
* **KB003** — transitive hot-path purity: the runtime import closure of
  ``repro.kernel.vectorized`` / ``state`` / ``base`` must not reach the
  per-cell object modules. This upgrades STR004 (which only sees direct
  imports) — a helper module slipped between the kernel and
  ``repro.core.cells`` hides the dependency from a per-file check but
  not from the closure walk. ``if TYPE_CHECKING:`` imports are exempt
  (annotation-only, no runtime object traffic).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.base import Finding, Project, Rule, dotted_name
from repro.lint.graph import (
    ClassSymbol,
    ModuleNode,
    ProjectGraph,
    project_graph,
)

__all__ = [
    "RegistryBackendPairingRule",
    "KernelClosurePurityRule",
]


def _iter_registry_factories(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _factory_calls(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.Call]:
    """Calls in ``func``'s own body, skipping nested function bodies."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _derives_from_switch(graph: ProjectGraph, sym: ClassSymbol) -> bool:
    """Heuristic: is ``sym`` a switch class (BaseSwitch lineage or name)?"""
    seen: set[str] = set()
    stack = [sym]
    while stack:
        cur = stack.pop()
        if cur.name in seen:
            continue
        seen.add(cur.name)
        if cur.name == "BaseSwitch":
            return True
        for base in cur.bases:
            if base.rsplit(".", 1)[-1] == "BaseSwitch":
                return True
            parent = graph.resolve_class(base)
            if parent is not None:
                stack.append(parent)
    return sym.name.endswith("Switch")


class RegistryBackendPairingRule(Rule):
    """KB002 — registry factory guard vs. the switch's kernel seam."""

    rule_id = "KB002"
    title = "registry pairing contradicts the switch's kernel seam"
    rationale = (
        "make_switch() injects the backend kwarg into every factory; a "
        "factory must either forward it to a switch whose __init__ "
        "accepts 'backend' (a kernel seam) or consume it up front: "
        "_discard_backend validates and drops it (single-bodied "
        "pairing). A guard on a seamed switch blocks support the classes "
        "declare; a missing guard on a seamless switch turns --backend "
        "vectorized into an opaque TypeError."
    )

    #: Helpers that consume the backend kwarg before the switch is built.
    _GUARDS = ("_discard_backend",)

    def check_project(self, project: Project) -> Iterator[Finding]:
        registry = project.find("repro/schedulers/registry.py")
        if registry is None:
            return
        graph = project_graph(project)
        for func in _iter_registry_factories(registry.tree):
            if func.name in self._GUARDS:
                continue
            guard: str | None = None
            switches: list[tuple[ClassSymbol, int]] = []
            for call in _factory_calls(func):
                fname = dotted_name(call.func)
                if fname is None:
                    continue
                last = fname.rsplit(".", 1)[-1]
                if last in self._GUARDS:
                    guard = last
                    continue
                sym = graph.resolve_class(last)
                if sym is not None and _derives_from_switch(graph, sym):
                    switches.append((sym, call.lineno))
            for sym, lineno in switches:
                has_seam = "backend" in self._init_params(graph, sym)
                if guard is not None and has_seam:
                    yield self.finding(
                        registry,
                        lineno,
                        f"factory {func.name}() calls {guard}() but "
                        f"builds {sym.name}, whose __init__ accepts "
                        "'backend' — the guard blocks a kernel seam the "
                        "switch declares; drop the guard or the seam",
                    )
                elif guard is None and not has_seam:
                    yield self.finding(
                        registry,
                        lineno,
                        f"factory {func.name}() builds {sym.name}, whose "
                        "__init__ has no 'backend' parameter, without "
                        f"calling {' or '.join(g + '()' for g in self._GUARDS)} "
                        "first; make_switch(..., backend='vectorized') "
                        "would die with an opaque TypeError instead of "
                        "building (or refusing) the pairing by name",
                    )

    @staticmethod
    def _init_params(graph: ProjectGraph, sym: ClassSymbol) -> frozenset[str]:
        """``__init__`` params of ``sym`` or the nearest ancestor defining one."""
        seen: set[str] = set()
        stack = [sym]
        while stack:
            cur = stack.pop()
            if cur.name in seen:
                continue
            seen.add(cur.name)
            if "__init__" in cur.methods:
                return cur.init_params
            for base in cur.bases:
                parent = graph.resolve_class(base)
                if parent is not None:
                    stack.append(parent)
        return frozenset()


class KernelClosurePurityRule(Rule):
    """KB003 — kernel hot-path import closure reaches per-cell objects."""

    rule_id = "KB003"
    title = "kernel hot path transitively imports the per-cell object model"
    rationale = (
        "STR004 stops a kernel module from importing repro.core.cells/voq/"
        "buffers/preprocess directly, but a helper module in between "
        "reintroduces the same pointer-chasing state invisibly. The "
        "runtime import closure of the hot-path modules must stay pure; "
        "only the object backend bridges the two worlds."
    )

    #: Hot-path roots whose closure must stay object-free.
    _ROOTS = (
        "repro.kernel.vectorized",
        "repro.kernel.state",
        "repro.kernel.base",
    )

    #: Object-model modules the closure must not reach (same set as STR004).
    _FORBIDDEN = (
        "repro.core.buffers",
        "repro.core.cells",
        "repro.core.preprocess",
        "repro.core.voq",
    )

    def _forbidden_target(self, dotted: str) -> str | None:
        for target in self._FORBIDDEN:
            if dotted == target or dotted.startswith(target + "."):
                return target
        return None

    def check_project(self, project: Project) -> Iterator[Finding]:
        graph = project_graph(project)
        for root in self._ROOTS:
            node = graph.modules.get(root)
            if node is None:
                continue
            closure = graph.import_closure(root)
            reported: set[str] = set()
            for name, chain in sorted(closure.items()):
                hit = self._walk_edges(graph, name)
                if hit is None:
                    continue
                target, lineno = hit
                if target in reported:
                    continue
                reported.add(target)
                via = " -> ".join(chain + (target,))
                # Point at the root's file (the contract owner), at the
                # import that starts the offending chain when indirect.
                if len(chain) > 1:
                    lineno = self._edge_line(graph, node, chain[1])
                yield self.finding(
                    node.info,
                    lineno,
                    f"import closure of {root} reaches {target} "
                    f"(per-cell object model) via {via}; keep the hot "
                    "path free of object-model imports (only the "
                    "'object' backend may bridge)",
                )

    @staticmethod
    def _edge_line(graph: ProjectGraph, node: ModuleNode, next_module: str) -> int:
        for edge in node.imports:
            resolved = graph.resolve_module(edge.target)
            if resolved is not None and resolved.name == next_module:
                return edge.lineno
        return 1

    def _walk_edges(
        self, graph: ProjectGraph, module_name: str
    ) -> tuple[str, int] | None:
        """First forbidden runtime import of ``module_name``, if any."""
        node = graph.modules.get(module_name)
        if node is None:
            return None
        for edge in node.imports:
            if edge.type_checking:
                continue
            target = self._forbidden_target(edge.target)
            if target is not None:
                return target, edge.lineno
        return None
