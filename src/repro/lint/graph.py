"""Project import graph for the kernel hot-path purity rule (KB003).

The per-file rules in ``rules_*`` see one AST at a time; KB003 asks a
question that spans module boundaries: *does the import closure of the
kernel hot path reach a per-cell object module?* This module builds that
view from the parsed :class:`~repro.lint.base.ModuleInfo` objects the
engine already holds:

* :class:`ModuleNode` — one module: its dotted name (derived from the
  path, so fixture trees under ``tmp/repro/...`` resolve like the real
  package) and its import edges, each tagged with whether it sits under
  ``if TYPE_CHECKING:`` (annotation-only imports move no objects at
  runtime and are excluded from closure walks). Relative imports
  (``from ..core import voq``, ``from . import helper``) are resolved
  against the importing module's package, so they are edges too.
* :class:`ProjectGraph` — the whole-project index plus
  :meth:`ProjectGraph.import_closure`, a BFS over runtime import edges
  that returns, for every reachable module, the chain of modules that
  reached it (so findings can print the offending path).
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.lint.base import ModuleInfo, Project, dotted_name

__all__ = [
    "ImportEdge",
    "ModuleNode",
    "ProjectGraph",
]


def _module_dotted_name(module: ModuleInfo) -> str:
    """Dotted module name derived from the resolved path.

    The name is anchored at the *last* path component named ``repro`` so
    both the installed tree (``.../src/repro/kernel/state.py`` ->
    ``repro.kernel.state``) and test fixture trees
    (``/tmp/x/repro/kernel/state.py``) resolve identically;
    ``__init__.py`` maps to its package. Files outside any ``repro``
    directory fall back to their bare stem.
    """
    parts = module.abspath.split("/")
    stem = parts[-1].removesuffix(".py")
    try:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        return stem
    dotted = parts[anchor:-1]
    if stem != "__init__":
        dotted.append(stem)
    return ".".join(dotted)


@dataclass(frozen=True, slots=True)
class ImportEdge:
    """One import statement's target, as written (module or symbol path)."""

    target: str
    lineno: int
    #: Inside an ``if TYPE_CHECKING:`` block — no runtime object traffic.
    type_checking: bool


def _is_type_checking_test(test: ast.expr) -> bool:
    name = dotted_name(test)
    return name is not None and name.rsplit(".", 1)[-1] == "TYPE_CHECKING"


def _import_targets(node: ast.Import | ast.ImportFrom, package: str) -> list[str]:
    """Absolute targets of one import statement (module and symbol paths).

    ``package`` is the importing module's package; a relative import
    climbs ``level - 1`` packages from it. A relative import that climbs
    above the root yields no targets.
    """
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level == 0:
        base = node.module
    else:
        parts = package.split(".") if package else []
        if node.level - 1 >= len(parts):
            return []
        anchor = ".".join(parts[: len(parts) - (node.level - 1)])
        base = f"{anchor}.{node.module}" if node.module else anchor
    if not base:
        return []
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def _iter_imports(tree: ast.Module, package: str) -> Iterator[ImportEdge]:
    """All import targets in ``tree`` with their TYPE_CHECKING context."""

    def edges(node: ast.AST, type_checking: bool) -> Iterator[ImportEdge]:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for target in _import_targets(node, package):
                yield ImportEdge(target, node.lineno, type_checking)

    def walk(body: list[ast.stmt], type_checking: bool) -> Iterator[ImportEdge]:
        for node in body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from edges(node, type_checking)
            elif isinstance(node, ast.If):
                guarded = type_checking or _is_type_checking_test(node.test)
                yield from walk(node.body, guarded)
                yield from walk(node.orelse, type_checking)
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                # Imports inside functions/classes are runtime imports.
                for child in ast.walk(node):
                    yield from edges(child, type_checking)
            elif isinstance(node, (ast.Try, ast.With, ast.AsyncWith)):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.stmt):
                        yield from walk([child], type_checking)
                    elif isinstance(child, ast.ExceptHandler):
                        yield from walk(child.body, type_checking)

    yield from walk(tree.body, False)


@dataclass(slots=True)
class ModuleNode:
    """One module in the project graph."""

    name: str
    info: ModuleInfo
    imports: tuple[ImportEdge, ...]


@dataclass(slots=True)
class ProjectGraph:
    """Whole-project import graph (one build per KB003 run)."""

    modules: dict[str, ModuleNode] = field(default_factory=dict)

    @classmethod
    def build(cls, project: Project) -> "ProjectGraph":
        graph = cls()
        for info in project.modules:
            name = _module_dotted_name(info)
            package = name if info.stem == "__init__" else name.rpartition(".")[0]
            node = ModuleNode(
                name=name, info=info, imports=tuple(_iter_imports(info.tree, package))
            )
            graph.modules.setdefault(name, node)
        return graph

    def resolve_module(self, target: str) -> ModuleNode | None:
        """Module node an import target refers to, if in the project.

        ``from repro.kernel.base import KernelBackend`` produces targets
        ``repro.kernel.base`` and ``repro.kernel.base.KernelBackend``;
        the symbol form resolves to its parent module.
        """
        node = self.modules.get(target)
        if node is not None:
            return node
        if "." in target:
            return self.modules.get(target.rsplit(".", 1)[0])
        return None

    def import_closure(self, root: str) -> dict[str, tuple[str, ...]]:
        """Modules reachable from ``root`` with their import chains.

        Returns ``{module_name: (root, ..., module_name)}`` for every
        project module reachable over runtime import edges (BFS, so each
        chain is a shortest one). ``root`` itself is included with the
        one-element chain.
        """
        if root not in self.modules:
            return {}
        chains: dict[str, tuple[str, ...]] = {root: (root,)}
        queue: deque[str] = deque([root])
        while queue:
            name = queue.popleft()
            node = self.modules[name]
            for edge in node.imports:
                if edge.type_checking:
                    continue
                target = self.resolve_module(edge.target)
                if target is None or target.name in chains:
                    continue
                chains[target.name] = chains[name] + (target.name,)
                queue.append(target.name)
        return chains
