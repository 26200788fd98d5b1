"""Golden pins for the pairings that have one body whatever ``backend`` says.

The equivalence grid holds the dual pairings to the reference model; the
nine single-bodied pairings have no reference, so each is held, under
the grid's two traffic specs, to a sha256 recorded while the bodies it
replaced still existed and agreed (recipe in
``tests/data/single_body_golden.json``, written for the two-run harness
of its day; :func:`_case_hash` computes the same bytes in one run: the
case's engine with telemetry, ``switch.step`` shadowed on the instance to
record each slot's digest).
The int-mask bodies are also held — iSLIP's for ``islip`` and
``cioq-islip``, the single-input-queue ones for ``siq-fifo`` and
``tatra`` — to pins the bodies they replaced produced at 16 ports
and at 70 (masks wider than a machine word).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.verify.grid import (
    EquivalenceCase,
    case_engine,
    record_digests,
    single_bodied_pairings,
)
from repro.obs.telemetry import Telemetry

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
    engine = case_engine(case, ports, GOLDEN["slots"], telemetry=Telemetry())
    digests = record_digests(engine.switch)
    summary = engine.run().to_dict()
    summary.pop("telemetry", None)  # the registry is hashed on its own
    metrics = engine.telemetry.registry.to_dict()
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
