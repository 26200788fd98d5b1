"""Every module in ``src/repro`` has a consumer on the program's path.

The walk starts at the command line (``repro.cli``, ``repro.__main__``)
and follows runtime imports over the lint's project graph. Importing
``repro.a.b`` runs ``repro/a/__init__.py`` too, so each reached module's
parent packages are walked as well, except the top-level ``repro``
package: its re-exports are a convenience for library users, not a
consumer. What the walk cannot reach must be in :data:`UNREACHED`, each
with the reason it stays.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.base import ModuleInfo, Project
from repro.lint.graph import ProjectGraph

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

ROOTS = ("repro.cli", "repro.__main__")

#: Modules no command reaches, and why each stays.
UNREACHED = {
    "repro._version": "holds the top-level __version__",
    "repro.hw": "the cycle-level model of Fig. 3, kept until it is rebuilt "
    "as an oracle that does not consume the simulator's ports",
    "repro.hw.comparator": "part of repro.hw",
    "repro.hw.scheduler_rtl": "part of repro.hw",
    "repro.analysis.burstiness": "closed-form oracle for the Fig. 8 burst "
    "generator",
    "repro.analysis.saturation": "saturation bracketing for interval-scored "
    "paper claims",
    "repro.experiments.replication": "replicated runs for interval-scored "
    "paper claims",
}


def _reached(graph: ProjectGraph) -> set[str]:
    reached: set[str] = set()
    roots = list(ROOTS)
    while roots:
        for root in roots:
            reached |= set(graph.import_closure(root))
        parents = {
            name.rsplit(".", k)[0]
            for name in reached
            for k in range(1, name.count("."))
        }
        roots = sorted(p for p in parents - reached if p in graph.modules)
    return reached


def test_every_module_is_reached_or_named():
    modules = [
        ModuleInfo.from_source(path.read_text(), path)
        for path in sorted(SRC.rglob("*.py"))
    ]
    graph = ProjectGraph.build(Project(modules=modules))
    assert set(ROOTS) <= set(graph.modules)
    del graph.modules["repro"]  # never follow the top-level re-exports
    unreached = set(graph.modules) - _reached(graph)
    assert unreached == set(UNREACHED)
