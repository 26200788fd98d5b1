"""Golden pins for the pairings that have one body whatever ``backend`` says.

The equivalence grid compares two bodies; the ten single-bodied pairings
have no second one, so each of their 20 former grid cases is held to a
sha256 recorded while both bodies still existed and agreed (recipe in
``tests/data/single_body_golden.json``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.kernel.equivalence import (
    EquivalenceCase,
    run_one_backend,
    single_bodied_pairings,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "single_body_golden.json").read_text()
)


def test_pins_cover_exactly_the_single_bodied_pairings():
    expected = {
        f"{name}/{model}"
        for name in single_bodied_pairings()
        for model in GOLDEN["traffic"]
    }
    assert set(GOLDEN["pins"]) == expected


@pytest.mark.parametrize("label", sorted(GOLDEN["pins"]))
def test_single_body_matches_golden(label, monkeypatch):
    # Fail-fast sanitizer on: it does not enter the hash, and it keeps
    # these pairings under the invariant sweep the grid gave them.
    monkeypatch.setenv("REPRO_SANITIZE", "hard")
    name, model = label.split("/")
    case = EquivalenceCase(name, GOLDEN["traffic"][model], seed=GOLDEN["seed"])
    digests, summary, _state, metrics = run_one_backend(
        case, GOLDEN["ports"], GOLDEN["slots"], "object"
    )
    blob = json.dumps([digests, summary, metrics], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN["pins"][label]
