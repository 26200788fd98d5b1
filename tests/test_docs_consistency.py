"""Meta-tests keeping the documentation honest.

DESIGN.md and EXPERIMENTS.md name modules, algorithms, figure ids and
bench files; these tests fail if the docs drift from the code.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def design_text() -> str:
    return (REPO / "DESIGN.md").read_text()


@pytest.fixture(scope="module")
def experiments_text() -> str:
    return (REPO / "EXPERIMENTS.md").read_text()


class TestDesignDoc:
    def test_every_referenced_module_exists(self, design_text):
        for dotted in set(re.findall(r"`(repro\.[a-z_.]+)`", design_text)):
            rel = dotted.replace(".", "/")
            candidates = [
                REPO / "src" / f"{rel}.py",
                REPO / "src" / rel / "__init__.py",
            ]
            # `repro.stats.histogram, repro.stats.multicast` style entries
            # split on commas upstream, so a plain existence check works.
            assert any(c.exists() for c in candidates), f"{dotted} missing"

    def test_every_bench_target_exists(self, design_text):
        for bench in set(re.findall(r"`benchmarks/([a-z0-9_]+\.py)`", design_text)):
            assert (REPO / "benchmarks" / bench).exists(), bench

    def test_every_figure_id_registered(self, design_text):
        from repro.experiments.figures import FIGURES

        for fid in ("fig4", "fig5", "fig6", "fig7", "fig8"):
            assert fid.upper() in design_text or fid in design_text
            assert fid in FIGURES

    def test_substitutions_section_present(self, design_text):
        # The reproduction-honesty contract: interpretation choices must
        # stay documented.
        assert "Substitutions and interpretation choices" in design_text
        assert "TATRA placement policy" in design_text


class TestExperimentsDoc:
    def test_claims_table_covers_all_figures(self, experiments_text):
        for fig in ("Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8"):
            assert fig in experiments_text

    def test_deviation_documented(self, experiments_text):
        assert "Deviation" in experiments_text

    def test_repro_commands_valid(self, experiments_text):
        assert "reproduce_figures.py" in experiments_text
        assert (REPO / "examples" / "reproduce_figures.py").exists()


class TestReadme:
    def test_example_scripts_exist(self):
        readme = (REPO / "README.md").read_text()
        for script in re.findall(r"examples/([a-z_]+\.py)", readme):
            assert (REPO / "examples" / script).exists(), script

    def test_advertised_algorithms_registered(self):
        from repro.schedulers.registry import available_schedulers

        names = available_schedulers()
        for required in (
            "fifoms", "tatra", "islip", "oqfifo", "pim", "wba",
            "maxweight-lqf", "2drr", "serena", "cicq", "cioq-islip",
            "fifoms-prio",
        ):
            assert required in names, required

    def test_quickstart_snippet_runs(self):
        """The README's first code block must actually work."""
        from repro import run_simulation

        summary = run_simulation(
            "fifoms",
            16,
            {"model": "bernoulli", "p": 0.2, "b": 0.2},
            num_slots=1000,
            seed=1,
        )
        assert summary.average_output_delay > 0


class TestApiDoc:
    def test_every_export_documented(self):
        """Every name in repro.__all__ appears in docs/api.md."""
        import repro

        api = (REPO / "docs" / "api.md").read_text()
        missing = [name for name in repro.__all__ if name not in api and name != "__version__"]
        assert not missing, f"undocumented exports: {missing}"

    def test_no_phantom_documented_names(self):
        """Backticked CamelCase names in api.md resolve in repro or its
        documented submodules."""
        import importlib
        import repro

        api = (REPO / "docs" / "api.md").read_text()
        names = set(re.findall(r"`([A-Z][A-Za-z]+)`", api))
        submodules = [
            "repro.experiments", "repro.experiments.scaling",
            "repro.experiments.fanout", "repro.experiments.replication",
            "repro.analysis.fairness", "repro.hw",
            "repro.report", "repro.switch.cicq",
        ]
        resolved = set(dir(repro))
        for mod in submodules:
            resolved |= set(dir(importlib.import_module(mod)))
        missing = sorted(n for n in names if n not in resolved)
        assert not missing, f"documented but unresolvable: {missing}"


#: Prose that describes the tree as it is (docs/perf_log.md is history).
PROSE = [
    REPO / name
    for name in ("README.md", "CONTRIBUTING.md", "DESIGN.md", "EXPERIMENTS.md")
] + sorted(p for p in (REPO / "docs").glob("*.md") if p.name != "perf_log.md")

#: The legacy `step()`-only perf ledger, deleted in PR 23, and the
#: per-switch VOQ upkeep the one bank replaced in PR 24. Only the
#: history files may still name them (and bench/README.md and ISSUE.md,
#: which a non-benchmark PR cannot edit, and this file, to forbid it).
RETIRED = (
    "bench-check", "BENCH_kernel.json", "BENCH_history.jsonl",
    "bench_kernel_backends", "bench_engine_speed", "repro.obs.bench",
    "OBS001",
    "_flush_pending", "_pend_flat", "_uni_occ", "_xp_occ",
)
MAY_NAME_RETIRED = {
    "CHANGES.md", "CHANGELOG.md", "ROADMAP.md", "ISSUE.md",
    "docs/perf_log.md", "bench/README.md",
    "tests/test_docs_consistency.py",
}
TEXT_SUFFIXES = {
    ".py", ".md", ".toml", ".yml", ".yaml", ".json", ".jsonl", ".cfg", ".txt",
}


class TestOnePerfLedger:
    def test_every_named_subcommand_is_registered(self):
        import argparse

        from repro.cli import build_parser

        (sub,) = (
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        named = re.compile(r"(?:repro-sim|python -m repro) ([a-z][a-z-]*)")
        for doc in PROSE:
            for cmd in named.findall(doc.read_text()):
                assert cmd in sub.choices, f"{doc.name} names `{cmd}`"

    def test_retired_ledger_is_named_nowhere(self):
        hits = []
        for root, dirs, files in os.walk(REPO):
            dirs[:] = [
                d for d in dirs
                if d != "__pycache__"
                and (not d.startswith(".") or d in (".github", ".claude"))
            ]
            for name in files:
                path = Path(root, name)
                rel = path.relative_to(REPO).as_posix()
                if rel in MAY_NAME_RETIRED or path.suffix not in TEXT_SUFFIXES:
                    continue
                text = rel + "\n" + path.read_text(errors="replace")
                hits += [f"{rel}: {r}" for r in RETIRED if r in text]
        assert not hits, sorted(hits)

    def test_design_does_not_restate_the_rule_count(self, design_text):
        """The catalog's size has one home (`repro-sim lint --list-rules`,
        docs/static_analysis.md); a digit here goes stale."""
        (row,) = re.findall(r"^\| S39 \|.*$", design_text, flags=re.MULTILINE)
        assert not re.search(r"\d+\s+rules", row), row
