"""Golden pins for the pairings that have one body whatever ``backend`` says.

The equivalence grid compares two bodies; the thirteen single-bodied
pairings have no second one, so each is held, under the grid's two
traffic specs, to a sha256 recorded while the bodies it replaced still
existed and agreed (recipe in ``tests/data/single_body_golden.json``).
The int-mask bodies are also held — iSLIP's for ``islip`` and
``cioq-islip``, the single-input-queue ones for ``wba``, ``siq-fifo``
and ``tatra`` — to pins the bodies they replaced produced at 16 ports
and at 70 (masks wider than a machine word).
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


def _case_hash(label: str, ports: int) -> str:
    name, model = label.split("/")
    case = EquivalenceCase(name, GOLDEN["traffic"][model], seed=GOLDEN["seed"])
    digests, summary, _state, metrics = run_one_backend(
        case, ports, GOLDEN["slots"], "object"
    )
    blob = json.dumps([digests, summary, metrics], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("label", sorted(GOLDEN["pins"]))
def test_single_body_matches_golden(label, monkeypatch):
    # Fail-fast sanitizer on: it does not enter the hash, and it keeps
    # these pairings under the invariant sweep the grid gave them.
    monkeypatch.setenv("REPRO_SANITIZE", "hard")
    assert _case_hash(label, GOLDEN["ports"]) == GOLDEN["pins"][label]


def _wide_cases(block: str) -> list[tuple[int, str]]:
    return [
        (int(ports), label)
        for ports, pins in sorted(GOLDEN[block].items())
        for label in sorted(pins)
    ]


@pytest.mark.parametrize("ports,label", _wide_cases("islip_pins"))
def test_islip_matches_golden_at_paper_size_and_wide(ports, label, monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "hard")
    assert _case_hash(label, ports) == GOLDEN["islip_pins"][str(ports)][label]


@pytest.mark.parametrize("ports,label", _wide_cases("siq_pins"))
def test_siq_matches_golden_at_paper_size_and_wide(ports, label, monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "hard")
    assert _case_hash(label, ports) == GOLDEN["siq_pins"][str(ports)][label]
