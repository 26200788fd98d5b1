"""Kernel hot-path independence rule (KB003).

The reference shadow (``repro.verify.shadow``) holds the production kernel
to the reference model (:mod:`repro.verify.reference`); it proves something
only while the two share no code. The runtime import closure of ``repro.kernel.vectorized``
/ ``state`` / ``base`` must not reach the reference — a direct import in
a root, or a helper module slipped in between, or a relative import
(``from ..verify.reference import …``), all land in the same closure
walk over the :class:`~repro.lint.graph.ProjectGraph`.
``if TYPE_CHECKING:`` imports are exempt (annotation-only, no runtime
object traffic).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.lint.base import Finding, Project, Rule
from repro.lint.graph import ModuleNode, ProjectGraph

__all__ = ["KernelClosurePurityRule"]


class KernelClosurePurityRule(Rule):
    """KB003 — kernel hot-path import closure reaches per-cell objects."""

    rule_id = "KB003"
    title = "kernel hot path transitively imports the reference model"
    rationale = (
        "The reference shadow holds the production kernel to "
        "repro.verify.reference, and proves something only while the two "
        "share no code; a hot-path module that imports the reference — "
        "directly, relatively, or through a helper module in between — "
        "would let one bug live on both sides of the comparison. The "
        "runtime import closure of the hot-path modules must stay clear "
        "of it; only the lane driver (repro.verify.shadow) bridges the two."
    )

    #: Hot-path roots whose closure must stay clear of the reference.
    _ROOTS = (
        "repro.kernel.vectorized",
        "repro.kernel.state",
        "repro.kernel.base",
    )

    #: The reference model the closure must not reach.
    _FORBIDDEN = ("repro.verify.reference",)

    def _forbidden_target(self, dotted: str) -> str | None:
        for target in self._FORBIDDEN:
            if dotted == target or dotted.startswith(target + "."):
                return target
        return None

    def check_project(self, project: Project) -> Iterator[Finding]:
        graph = ProjectGraph.build(project)
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
                    f"(the reference model) via {via}; keep the hot "
                    "path independent of the reference (only the "
                    "reference lane driver may bridge)",
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
