#!/usr/bin/env python3
"""The kill matrix: every seeded mutant against every check family.

    python tests/kill_matrix.py          # print the table
    python tests/kill_matrix.py --check  # and exit 1 on a survivor without a
                                         # known_gap, a known_gap row that is
                                         # killed, or a table that differs from
                                         # docs/kill_matrix.md

Each row of ``tests/data/mutants.json`` replaces one ``original`` text of
one source file with its ``replacement``. For each row the runner copies
the checkout into a temporary directory, applies that one mutant and runs
every check family of :data:`JOBS` against the copy, two processes at a
time; a family *kills* the mutant when it fails. The rest of tier-1 runs
too for a mutant that at most one family kills, so a kill the table calls
unique is unique against the whole suite. Before any mutant, every family
runs once on an unmutated copy and must pass. The table on stdout is the
whole of ``docs/kill_matrix.md``; wall time goes to stderr.

Pytest does not collect this file (it is not named ``test_*.py``);
``tests/test_kill_matrix.py`` keeps the rows applicable in tier-1.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tests" / "data" / "mutants.json"
TABLE = ROOT / "docs" / "kill_matrix.md"
LANES = 2
TIMEOUT_S = 900

#: The sanitizer's record-mode runs: (algorithm, ports, slots, traffic,
#: fault scenario, switch options), each under ``checkers_for(switch)``.
_LOAD = {"model": "bernoulli", "p": 0.3, "b": 0.25}
_HEAVY = {"model": "bernoulli", "p": 0.9, "b": 0.5}
SANITIZER_RUNS = [
    ("fifoms", 8, 600, _LOAD, None, {}),
    ("fifoms", 16, 200, _HEAVY, None, {}),
    ("fifoms", 8, 400, _LOAD, None, {"tie_break": "lowest_input"}),
    ("fifoms", 8, 400, _LOAD, None, {"tie_break": "round_robin"}),
    ("fifoms", 8, 400, _LOAD, None, {"fanout_splitting": False}),
    ("fifoms", 8, 300, _HEAVY, None, {"buffer_capacity": 4, "buffer_overflow": "drop"}),
    ("fifoms", 8, 600, _LOAD, "chaos", {}),
    ("fifoms", 8, 600, _LOAD, "grant-glitch", {}),
    ("greedy-mcast", 8, 600, _LOAD, None, {}),
    *((name, 8, 600, _LOAD, None, {}) for name in (
        "islip", "pim", "maxweight-lqf", "cioq-islip", "cicq", "eslip",
        "oqfifo", "tatra", "siq-fifo")),
]

#: Sanitizer checker name -> column.
CHECKER_COLUMNS = {
    "conservation": "cons",
    "matching": "match",
    "fifo_order": "fifo",
    "rng_isolation": "rng",
    "reference_shadow": "shadow",
    "state_cross": "inv",
}

PIN_FILES = {
    "pin-sb": "tests/test_single_body_golden.py",
    "pin-tr": "tests/test_trace_pins.py",
    "pin-su": "tests/test_summary_pins.py",
}
ORACLE_FILES = {
    "or-islip": "tests/test_islip_masks.py",
    "or-siq": "tests/test_siq_masks.py",
    "or-seam": "tests/test_mask_seam.py",
}
#: Cheapest first: the golden family stops at the first failing workload.
GOLDEN_WORKLOADS = (
    "fig4_fifoms_n16", "fifoms_n256_scale", "fig6_islip_n16_unicast",
    "oqfifo_n16_light", "fifoms_n16_guarded", "fig4_sweep_pool",
    "fig4_campaign_durable",
)
#: Tier-1 tests that re-run a column's check (the linter over the tree)
#: or read the mutant rows themselves.
TIER1_SKIP = (
    "--ignore=tests/test_kill_matrix.py",
    "--deselect=tests/test_lint.py::TestSelfCheck",
    "--deselect=tests/test_lint_sanitize.py::TestCatalog::test_own_source_tree_is_clean",
    "--deselect=tests/test_cli.py::TestLintCommand::test_own_tree_is_clean_strict",
    "--deselect=tests/test_cli.py::TestLintCommand::test_default_target_is_package_tree",
)

#: (column, what it runs), in table order.
COLUMNS = [
    ("lint", "`repro lint --strict src/repro examples`"),
    ("cons", "sanitizer `conservation`"),
    ("match", "sanitizer `matching`"),
    ("fifo", "sanitizer `fifo_order`"),
    ("rng", "sanitizer `rng_isolation`"),
    ("shadow", "sanitizer `reference_shadow`"),
    ("inv", "sanitizer `state_cross`: the switch's `check_invariants()`"),
    ("verify", "`repro verify -a A -n 2 --horizon 2` for every registry name A"),
    *((col, f"`{path}`") for col, path in PIN_FILES.items()),
    *((col, f"`{path}`") for col, path in ORACLE_FILES.items()),
    ("prop", "`tests/test_property_*.py`"),
    ("golden", "`python bench/run.py --workload W --trace 1 --seconds 0` "
               "against `bench/golden.json`, for each of the seven workloads"),
    ("t1", "the rest of tier-1"),
]


# --------------------------------------------------------------------- #
# Mutants
# --------------------------------------------------------------------- #
def load_mutants() -> list[dict]:
    return json.loads(MUTANTS.read_text())


def mutated_source(root: Path, row: dict) -> str:
    """The text of ``row["file"]`` under ``root`` with the mutant applied;
    ``ValueError`` unless ``original`` occurs exactly once."""
    text = (root / row["file"]).read_text()
    found = text.count(row["original"])
    if found != 1:
        raise ValueError(f"{row['id']}: original occurs {found} times in {row['file']}")
    return text.replace(row["original"], row["replacement"])


# --------------------------------------------------------------------- #
# Check families
# --------------------------------------------------------------------- #
def _env(copy: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=f"{copy / 'src'}{os.pathsep}{copy / 'tests'}",
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


def _run(copy: Path, *argv: str) -> subprocess.CompletedProcess[str] | None:
    """Run ``argv`` in ``copy``; None when it outlives the timeout."""
    try:
        return subprocess.run(argv, cwd=copy, env=_env(copy), capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None


def _fails(copy: Path, *argv: str) -> bool:
    proc = _run(copy, *argv)
    return proc is None or proc.returncode != 0


def _pytest(*args: str) -> tuple[str, ...]:
    return (sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", *args)


def _lint(copy: Path) -> set[str]:
    argv = (sys.executable, "-m", "repro", "lint", "--strict", "src/repro", "examples")
    return {"lint"} if _fails(copy, *argv) else set()


def _sanitizer(copy: Path) -> set[str]:
    proc = _run(copy, sys.executable, "-c",
                "import kill_matrix; kill_matrix.print_checker_columns()")
    lines = proc.stdout.strip().splitlines() if proc is not None else []
    # A run that never printed is no checker's kill, but fails the control.
    return set(json.loads(lines[-1])) if lines else {"no sanitizer report"}


def _verify(copy: Path) -> set[str]:
    script = ("import sys; from repro.cli import main; "
              "from repro.schedulers.registry import available_schedulers as names; "
              "sys.exit(any(main(['verify', '-a', a, '-n', '2', '--horizon', '2']) "
              "for a in names()))")
    return {"verify"} if _fails(copy, sys.executable, "-c", script) else set()


def _files(column: str, *paths: str) -> Callable[[Path], set[str]]:
    def job(copy: Path) -> set[str]:
        return {column} if _fails(copy, *_pytest(*paths)) else set()
    return job


def _properties(copy: Path) -> set[str]:
    paths = sorted(str(p.relative_to(copy)) for p in (copy / "tests").glob("test_property_*.py"))
    return {"prop"} if _fails(copy, *_pytest(*paths)) else set()


def _golden(copy: Path) -> set[str]:
    for workload in GOLDEN_WORKLOADS:
        proc = _run(copy, sys.executable, "bench/run.py", "--workload", workload,
                    "--trace", "1", "--seconds", "0")
        lines = proc.stdout.strip().splitlines() if proc is not None else []
        if proc is None or proc.returncode != 0 or not lines or not json.loads(
                lines[-1]).get("correct"):
            return {"golden"}
    return set()


def _tier1(copy: Path) -> set[str]:
    ignored = [f"--ignore={p}" for p in (*PIN_FILES.values(), *ORACLE_FILES.values())]
    ignored += [f"--ignore={p.relative_to(copy)}"
                for p in (copy / "tests").glob("test_property_*.py")]
    return {"t1"} if _fails(copy, *_pytest(*ignored, *TIER1_SKIP)) else set()


JOBS: list[Callable[[Path], set[str]]] = [
    _lint, _sanitizer, _verify,
    *(_files(col, path) for col, path in {**PIN_FILES, **ORACLE_FILES}.items()),
    _properties, _golden,
]


def print_checker_columns() -> None:
    """Run :data:`SANITIZER_RUNS` in record mode and print, as one JSON
    line, the columns of the checkers that fired (run in the copy)."""
    from repro.sanitize import SanitizerSuite
    from repro.schedulers.registry import make_switch
    from repro.sim.runner import run_simulation
    from repro.verify.shadow import checkers_for

    fired: set[str] = set()
    for algorithm, ports, slots, traffic, faults, options in SANITIZER_RUNS:
        suite = SanitizerSuite(checkers=checkers_for(make_switch(algorithm, ports, **options)),
                               fail_at_finish=False, deep_every=16)
        try:
            run_simulation(algorithm, ports, dict(traffic), num_slots=slots, seed=2004,
                           faults=faults, sanitize=suite, **options)
        except Exception as exc:  # a crash is no checker's kill; say so
            print(f"{algorithm}: {type(exc).__name__}: {exc}", file=sys.stderr)
        fired |= {CHECKER_COLUMNS[v.checker] for v in suite.violations}
    print(json.dumps(sorted(fired)))


# --------------------------------------------------------------------- #
# Running
# --------------------------------------------------------------------- #
@dataclass
class Outcome:
    row: dict
    kills: set[str]
    ran_tier1: bool


def _copy(row: dict | None, into: Path) -> Path:
    copy = into / "repo"
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".work", ".hypothesis", ".pytest_cache", "*.egg-info"))
    if row is not None:
        (copy / row["file"]).write_text(mutated_source(ROOT, row))
    return copy


def _apply(job: Callable[[Path], set[str]], row: dict | None) -> set[str]:
    with tempfile.TemporaryDirectory(prefix="kill-matrix-") as tmp:
        return job(_copy(row, Path(tmp)))


def run_matrix(rows: list[dict]) -> list[Outcome]:
    with ThreadPoolExecutor(max_workers=LANES) as pool:
        control = [pool.submit(_apply, job, None) for job in [*JOBS, _tier1]]
        failing = set().union(*(f.result() for f in control))
        if failing:
            raise SystemExit(f"unmutated checkout fails: {sorted(failing)}")
        pending = [(row, [pool.submit(_apply, job, row) for job in JOBS]) for row in rows]
        outcomes = []
        for row, futures in pending:
            kills = set().union(*(f.result() for f in futures)) & {c for c, _ in COLUMNS}
            outcomes.append(Outcome(row, kills, len(kills) <= 1))
            print(f"{row['id']}: {' '.join(sorted(kills)) or 'survives'}", file=sys.stderr)
        for outcome, future in [(o, pool.submit(_apply, _tier1, o.row))
                                for o in outcomes if o.ran_tier1]:
            outcome.kills |= future.result()
            print(f"{outcome.row['id']}: tier-1 {'kills' if 't1' in outcome.kills else 'misses'}",
                  file=sys.stderr)
    return outcomes


# --------------------------------------------------------------------- #
# The table
# --------------------------------------------------------------------- #
def render(outcomes: list[Outcome]) -> str:
    cols = [col for col, _ in COLUMNS]
    lines = [
        "# Kill matrix",
        "",
        "Generated by `python tests/kill_matrix.py`; do not edit. CI's "
        "`kill-matrix` job runs it with `--check`, which fails when this "
        "file differs from the output. Each row is one seeded mutant of "
        "`tests/data/mutants.json` (the `breaks` field says what it "
        "violates), applied to a fresh copy of the checkout. Each column is "
        "one check family run against that copy: `x` it fails (kills the "
        "mutant), `.` it passes, `-` not run. The rest of tier-1 runs only "
        "for a mutant that at most one other family kills. `gap` names the "
        "ROADMAP item of a row's `known_gap`. The last two rows count the "
        "mutants each family kills, and those it alone kills.",
        "",
        *(f"- `{col}`: {what}" for col, what in COLUMNS),
        "",
        "| mutant | " + " | ".join(cols) + " | gap |",
        "|---|" + "---|" * (len(cols) + 1),
    ]
    for o in outcomes:
        cells = ["x" if c in o.kills else "-" if c == "t1" and not o.ran_tier1 else "."
                 for c in cols]
        gap = o.row.get("known_gap", {}).get("item", "")
        lines.append(f"| `{o.row['id']}` | " + " | ".join(cells) + f" | {gap} |")
    for label, count in (
            ("kills", lambda c: sum(c in o.kills for o in outcomes)),
            ("unique", lambda c: sum(o.kills == {c} for o in outcomes))):
        lines.append(f"| **{label}** | " + " | ".join(str(count(c)) for c in cols) + " | |")
    return "\n".join(lines) + "\n"


def problems(outcomes: list[Outcome], table: str) -> list[str]:
    """What ``--check`` fails on."""
    found = []
    for o in outcomes:
        gap = "known_gap" in o.row
        if not o.kills and not gap:
            found.append(f"{o.row['id']} survives every family and has no known_gap")
        if o.kills and gap:
            found.append(f"{o.row['id']} has a known_gap but {sorted(o.kills)} kill it")
    if not TABLE.exists() or TABLE.read_text() != table:
        found.append(f"{TABLE.relative_to(ROOT)} differs from the runner's table")
    return found


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print(__doc__, file=sys.stderr)
        return 2
    started = time.monotonic()
    outcomes = run_matrix(load_mutants())
    table = render(outcomes)
    sys.stdout.write(table)
    print(f"kill matrix: {len(outcomes)} mutants in {time.monotonic() - started:.0f} s",
          file=sys.stderr)
    if argv:
        found = problems(outcomes, table)
        for line in found:
            print(f"kill matrix: {line}", file=sys.stderr)
        return 1 if found else 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
