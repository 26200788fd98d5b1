"""sha256 pins of whole-run summaries.

Each pin hashes ``SimulationSummary.to_json()`` with the wall-clock
``telemetry`` section dropped, as ``bench/child.py::summary_digest``
does. The recipes follow ``bench/workloads.py`` at a fraction of its
length, plus the modes no other pin covers: uniform-unicast iSLIP (the
Fig. 6 recipe), OQFIFO, extended stats, the sanitizer and fault
injection (dropped packets and cells). A change to traffic, a
switch, a scheduler or the stats that moves any summary byte fails here.

The digests were recorded at commit 6a1725d. Re-record only for a
deliberate behaviour change: print ``_digest(_run(name))`` per entry.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis.loads import bernoulli_arrival_probability
from repro.experiments.figures import get_figure
from repro.sim import run_simulation

SEED = 2004


def _fig(figure_id: str, load: float) -> dict:
    return get_figure(figure_id).traffic_for_load(load)


#: name -> (algorithm, ports, traffic spec thunk, run_simulation kwargs)
RECIPES = {
    "fifoms_n16_fig4": ("fifoms", 16, lambda: _fig("fig4", 0.8), {"num_slots": 1_250}),
    "fifoms_n256_scale": (
        "fifoms",
        256,
        lambda: {
            "model": "bernoulli",
            "p": bernoulli_arrival_probability(256, 0.8, 0.05),
            "b": 0.05,
        },
        {"num_slots": 80},
    ),
    "islip_n16_fig6": ("islip", 16, lambda: _fig("fig6", 0.8), {"num_slots": 650}),
    "oqfifo_n16_light": ("oqfifo", 16, lambda: _fig("fig4", 0.3), {"num_slots": 6_000}),
    "islip_n16_fig7_extended": (
        "islip",
        16,
        lambda: _fig("fig7", 0.6),
        {"num_slots": 800, "extended_stats": True},
    ),
    "fifoms_n16_sanitized_extended": (
        "fifoms",
        16,
        lambda: _fig("fig4", 0.8),
        {"num_slots": 800, "sanitize": True, "extended_stats": True},
    ),
    "fifoms_n16_chaos": (
        "fifoms",
        16,
        lambda: _fig("fig4", 0.8),
        {"num_slots": 800, "faults": "chaos"},
    ),
}

PINS = {
    "fifoms_n16_fig4": (
        "3d42f18792f59b5f49af235ec9f7150ace8e81d73c5d9c3947c0945d836924db"
    ),
    "fifoms_n256_scale": (
        "a8d54b3631952c34d07da8f622250cd2c61a0659694cb819b79e48923a8384cf"
    ),
    "islip_n16_fig6": (
        "6bcef8181bcb6d94e88001bd6f5e621539d1f4b04ee5879325258ac0ecb04277"
    ),
    "oqfifo_n16_light": (
        "f065816b4355f65e5b1b57deb69fa79c37735ea52e415942670ec2df53306823"
    ),
    "islip_n16_fig7_extended": (
        "d75a59a94f6545433509ca4c23ebf374578ebfb50d157ea5e57514c00656d4df"
    ),
    "fifoms_n16_sanitized_extended": (
        "cb7b44da79d1b4877b85c6b5cc61fcadcff8b999876511f3844c80288c5725ad"
    ),
    "fifoms_n16_chaos": (
        "de110f8cceef6470d956b268b49d10867f8c4dfcbdafaba622d5406a53ad01f6"
    ),
}


def _run(name: str):
    algorithm, ports, traffic, kwargs = RECIPES[name]
    return run_simulation(algorithm, ports, traffic(), seed=SEED, **kwargs)


def _digest(summary) -> str:
    payload = json.loads(summary.to_json())
    payload.pop("telemetry", None)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_summary_bytes_are_pinned(name):
    assert _digest(_run(name)) == PINS[name]
