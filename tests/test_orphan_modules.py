"""Every module in ``src/repro`` has a consumer on the program's path,
and every registry name a paper claim that reads it.

The walk starts at the command line (``repro.cli``, ``repro.__main__``)
and follows runtime imports over the lint's project graph. Importing
``repro.a.b`` runs ``repro/a/__init__.py`` too, so each reached module's
parent packages are walked as well, except the top-level ``repro``
package: its re-exports are a convenience for library users, not a
consumer. What the walk cannot reach must be in :data:`UNREACHED`, each
with the reason it stays. The CLI reaches the whole registry, so a
registry name is held to a stricter rule: some ``CLAIMS`` row reads its
points, or :data:`UNCLAIMED` names it with the reason it stays; and no
figure sweeps a pairing that no row reads.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.figures import ALGO_ALIASES, FIGURES
from repro.experiments.paper import check_expectations
from repro.lint.base import ModuleInfo, Project
from repro.lint.graph import ProjectGraph
from repro.schedulers.registry import available_schedulers

from conftest import stub_result

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

#: Registry names no claim row reads, and what keeps each. No figure
#: sweeps them (test_every_swept_pairing_is_claimed).
UNCLAIMED = {
    "greedy-mcast": "the second pairing ReferenceShadow models (a dual "
    "pairing of the equivalence grid), and the baseline of "
    "tests/test_stats_extended.py::test_fifoms_tail_beats_greedy",
}


def _claimed() -> set[str]:
    """Registry names whose points some ``CLAIMS`` row reads."""
    reads: set = set()
    for spec in FIGURES.values():
        assert check_expectations(stub_result(spec, reads=reads)), spec.figure_id
    return {ALGO_ALIASES.get(a, a) for a, _ in reads}


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


def test_every_registry_name_is_claimed_or_named():
    claimed = _claimed()
    assert claimed <= set(available_schedulers())
    assert set(available_schedulers()) - claimed == set(UNCLAIMED)


def test_every_swept_pairing_is_claimed():
    swept = {
        ALGO_ALIASES.get(a, a) for spec in FIGURES.values() for a in spec.algorithms
    }
    assert swept - _claimed() == set()
