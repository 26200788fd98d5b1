"""Smoke test of the example scripts that extend the library."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro import make_switch, register_switch_factory, run_simulation
from repro.schedulers import registry

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_custom_scheduler_runs_sanitized():
    """LQF-MS, the one third-party scheduler, builds on the production
    kernel through ``schedule_state`` and runs clean under the sanitizer
    (a sanitized run raises at its end on any violation)."""
    example = _load("custom_scheduler")
    register_switch_factory("lqf-ms", example._factory)
    try:
        switch = make_switch("lqf-ms", 8)
        assert isinstance(switch.scheduler, example.LQFMulticastScheduler)
        assert switch.backend == "vectorized"
        summary = run_simulation(
            "lqf-ms", 8, {"model": "bernoulli", "p": 0.3, "b": 0.25},
            num_slots=300, seed=9, sanitize=True,
        )
    finally:
        registry._REGISTRY.pop("lqf-ms", None)
    assert summary.slots_run == 300
    assert summary.cells_delivered > 0
