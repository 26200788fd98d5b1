"""Project-wide symbol table and import graph for flow-aware rules.

The per-file rules in ``rules_*`` see one AST at a time; the kernel-
contract (KB) family needs to answer questions that span module
boundaries: *does a registry factory's switch accept ``backend``?* —
*does the import closure of the kernel hot path reach a per-cell object
module?* This module builds that view once per lint run, from the same
parsed :class:`~repro.lint.base.ModuleInfo` objects the engine already
holds:

* :class:`ClassSymbol` — one class statement: bases, method names and
  ``__init__`` parameters.
* :class:`ModuleNode` — one module: its dotted name (derived from the
  path, so fixture trees under ``tmp/repro/...`` resolve like the real
  package) and its import edges, each tagged with whether it sits under
  ``if TYPE_CHECKING:`` (annotation-only imports move no objects at
  runtime and are excluded from closure walks).
* :class:`ProjectGraph` — the whole-project index plus
  :meth:`ProjectGraph.import_closure`, a BFS over runtime import edges
  that returns, for every reachable module, the chain of modules that
  reached it (so findings can print the offending path).

Build it through :func:`project_graph`, which memoizes on the
:class:`~repro.lint.base.Project` so the KB rules share one build.
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.lint.base import ModuleInfo, Project, dotted_name

__all__ = [
    "ImportEdge",
    "ClassSymbol",
    "ModuleNode",
    "ProjectGraph",
    "project_graph",
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


@dataclass(slots=True)
class ClassSymbol:
    """What the KB rules need to know about one class statement."""

    name: str
    module: str
    info: ModuleInfo
    lineno: int
    bases: tuple[str, ...]
    methods: frozenset[str]
    #: Parameter names of ``__init__`` (excluding self), if defined here.
    init_params: frozenset[str]


def _is_type_checking_test(test: ast.expr) -> bool:
    name = dotted_name(test)
    return name is not None and name.rsplit(".", 1)[-1] == "TYPE_CHECKING"


def _iter_imports(tree: ast.Module) -> Iterator[ImportEdge]:
    """All import targets in ``tree`` with their TYPE_CHECKING context."""

    def walk(body: list[ast.stmt], type_checking: bool) -> Iterator[ImportEdge]:
        for node in body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield ImportEdge(alias.name, node.lineno, type_checking)
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.level == 0:
                    yield ImportEdge(node.module, node.lineno, type_checking)
                    for alias in node.names:
                        yield ImportEdge(
                            f"{node.module}.{alias.name}", node.lineno, type_checking
                        )
            elif isinstance(node, ast.If):
                guarded = type_checking or _is_type_checking_test(node.test)
                yield from walk(node.body, guarded)
                yield from walk(node.orelse, type_checking)
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                # Imports inside functions/classes are runtime imports.
                for child in ast.walk(node):
                    if isinstance(child, ast.Import):
                        for alias in child.names:
                            yield ImportEdge(alias.name, child.lineno, type_checking)
                    elif isinstance(child, ast.ImportFrom):
                        if child.module and child.level == 0:
                            yield ImportEdge(child.module, child.lineno, type_checking)
                            for alias in child.names:
                                yield ImportEdge(
                                    f"{child.module}.{alias.name}",
                                    child.lineno,
                                    type_checking,
                                )
            elif isinstance(node, (ast.Try, ast.With, ast.AsyncWith)):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.stmt):
                        yield from walk([child], type_checking)
                    elif isinstance(child, ast.ExceptHandler):
                        yield from walk(child.body, type_checking)

    yield from walk(tree.body, False)


def _scan_class(cls: ast.ClassDef, module_name: str, info: ModuleInfo) -> ClassSymbol:
    methods: set[str] = set()
    init_params: frozenset[str] = frozenset()
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.add(stmt.name)
            if stmt.name == "__init__":
                a = stmt.args
                names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
                init_params = frozenset(names[1:] if names else [])
    bases = tuple(
        seg
        for seg in (dotted_name(b) for b in cls.bases)
        if seg is not None
    )
    return ClassSymbol(
        name=cls.name,
        module=module_name,
        info=info,
        lineno=cls.lineno,
        bases=bases,
        methods=frozenset(methods),
        init_params=init_params,
    )


@dataclass(slots=True)
class ModuleNode:
    """One module in the project graph."""

    name: str
    info: ModuleInfo
    imports: tuple[ImportEdge, ...]


@dataclass(slots=True)
class ProjectGraph:
    """Whole-project symbol table + import graph (one build per run)."""

    modules: dict[str, ModuleNode] = field(default_factory=dict)
    #: Class name -> symbol; first definition wins (names are unique in
    #: this codebase; fixture collisions take the first in path order).
    classes: dict[str, ClassSymbol] = field(default_factory=dict)

    @classmethod
    def build(cls, project: Project) -> "ProjectGraph":
        graph = cls()
        for info in project.modules:
            name = _module_dotted_name(info)
            node = ModuleNode(
                name=name, info=info, imports=tuple(_iter_imports(info.tree))
            )
            graph.modules.setdefault(name, node)
            for stmt in ast.walk(info.tree):
                if isinstance(stmt, ast.ClassDef):
                    sym = _scan_class(stmt, name, info)
                    graph.classes.setdefault(stmt.name, sym)
                    graph.classes.setdefault(name + "." + stmt.name, sym)
        return graph

    # ------------------------------------------------------------------ #
    def resolve_class(self, name: str | None) -> ClassSymbol | None:
        """Look up a class by bare or dotted name (last segment wins)."""
        if name is None:
            return None
        sym = self.classes.get(name)
        if sym is not None:
            return sym
        return self.classes.get(name.rsplit(".", 1)[-1])

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

    def import_closure(
        self, root: str, *, include_type_checking: bool = False
    ) -> dict[str, tuple[str, ...]]:
        """Modules reachable from ``root`` with their import chains.

        Returns ``{module_name: (root, ..., module_name)}`` for every
        project module reachable over runtime import edges (BFS, so each
        chain is a shortest one). ``root`` itself is included with the
        one-element chain.
        """
        start = self.modules.get(root)
        if start is None:
            return {}
        chains: dict[str, tuple[str, ...]] = {root: (root,)}
        queue: deque[str] = deque([root])
        while queue:
            name = queue.popleft()
            node = self.modules[name]
            for edge in node.imports:
                if edge.type_checking and not include_type_checking:
                    continue
                target = self.resolve_module(edge.target)
                if target is None or target.name in chains:
                    continue
                chains[target.name] = chains[name] + (target.name,)
                queue.append(target.name)
        return chains


def project_graph(project: Project) -> ProjectGraph:
    """The (memoized) :class:`ProjectGraph` for ``project``."""
    if project.graph_cache is None:
        project.graph_cache = ProjectGraph.build(project)
    return project.graph_cache
