"""Keep the kill matrix's rows from rotting (tier-1, a few seconds).

``tests/kill_matrix.py`` runs every check family against every row of
``tests/data/mutants.json`` and takes tens of minutes; these tests only
hold the rows to the tree: each one still applies and compiles, a known
gap names a ROADMAP item, every lint rule and sanitizer checker has a
mutant in its shape, and the committed table lists exactly the rows.
"""

from __future__ import annotations

import re

import pytest

import kill_matrix
from repro.lint.engine import default_rules
from repro.schedulers.registry import make_switch
from repro.verify.shadow import checkers_for

ROWS = kill_matrix.load_mutants()
FIELDS = {"id", "file", "original", "replacement", "breaks", "shape", "known_gap"}


@pytest.mark.parametrize("row", ROWS, ids=[row["id"] for row in ROWS])
def test_row_applies_once_and_compiles(row):
    compile(kill_matrix.mutated_source(kill_matrix.ROOT, row), row["file"], "exec")


def test_rows_are_well_formed():
    ids = [row["id"] for row in ROWS]
    assert len(ids) == len(set(ids))
    for row in ROWS:
        assert {"id", "file", "original", "replacement", "breaks"} <= row.keys() <= FIELDS
        assert row["original"] != row["replacement"], row["id"]


def test_every_known_gap_names_a_roadmap_item():
    roadmap = (kill_matrix.ROOT / "ROADMAP.md").read_text()
    for row in ROWS:
        gap = row.get("known_gap")
        if gap is not None:
            assert gap["reason"], row["id"]
            assert re.search(rf"^{re.escape(gap['item'])}\. \*\*", roadmap, re.M), row["id"]


def test_every_rule_and_checker_has_a_row_in_its_shape():
    rules = {rule.rule_id for rule in default_rules()}
    checkers = {c.name for c in checkers_for(make_switch("fifoms", 2))}
    shapes = {row["shape"] for row in ROWS if "shape" in row}
    assert rules | checkers <= shapes, sorted((rules | checkers) - shapes)
    assert shapes <= rules | checkers, sorted(shapes - rules - checkers)


def test_the_table_lists_exactly_the_rows():
    table = kill_matrix.TABLE.read_text()
    listed = re.findall(r"^\| `([^`]+)` \|", table, re.M)
    assert listed == [row["id"] for row in ROWS]
