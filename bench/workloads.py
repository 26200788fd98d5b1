"""The seven benchmark workloads and the recipes that build them.

Names and reasons are declared in ``BENCHMARK.json``; this module holds
what each name *runs*. Everything from ``repro`` is imported inside the
functions, so the parent driver can read the table without paying the
simulator's import (that cost belongs to the child, where it is measured
as ``setup_s``).

Sizes are chosen so one timed call takes about 2 s on the 2-core
reference box; ``scale`` divides them (the smoke test runs at 1/50).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

#: Default seed; the digests in golden.json are pinned for it.
DEFAULT_SEED = 2004

#: Load axis of the two sweep workloads (4 loads x 4 algorithms = 16 points).
SWEEP_LOADS = (0.3, 0.6, 0.8, 0.9)

#: nproc is 2 on the reference box: sweeps fan out to exactly this many.
SWEEP_WORKERS = 2

#: Slots per run of the mode-ratio measurement (fig4_fifoms_n16 recipe).
RATIO_SLOTS = 2_000


def _figure_traffic(figure_id: str, load: float) -> Callable[[], dict[str, Any]]:
    def spec() -> dict[str, Any]:
        from repro.experiments.figures import get_figure

        return get_figure(figure_id).traffic_for_load(load)

    return spec


def _bernoulli_traffic(
    num_ports: int, load: float, b: float
) -> Callable[[], dict[str, Any]]:
    def spec() -> dict[str, Any]:
        from repro.analysis.loads import bernoulli_arrival_probability

        return {
            "model": "bernoulli",
            "p": bernoulli_arrival_probability(num_ports, load, b),
            "b": b,
        }

    return spec


@dataclass(frozen=True)
class Run:
    """One ``run_simulation`` call on the vectorized backend."""

    algorithm: str
    num_ports: int
    traffic: Callable[[], dict[str, Any]]
    num_slots: int
    #: Telemetry(profile=True) + sanitizer in record mode.
    guarded: bool = False

    kind = "run"


@dataclass(frozen=True)
class Sweep:
    """The Fig. 4 grid at SWEEP_LOADS: ``run_figure`` or a durable campaign."""

    num_slots: int
    durable: bool = False

    @property
    def kind(self) -> str:
        return "campaign" if self.durable else "sweep"


WORKLOADS: dict[str, Run | Sweep] = {
    "fig4_fifoms_n16": Run("fifoms", 16, _figure_traffic("fig4", 0.8), 12_500),
    "fifoms_n256_scale": Run(
        "fifoms", 256, _bernoulli_traffic(256, 0.8, 0.05), 800
    ),
    "fig6_islip_n16_unicast": Run(
        "islip", 16, _figure_traffic("fig6", 0.8), 6_500
    ),
    "oqfifo_n16_light": Run("oqfifo", 16, _figure_traffic("fig4", 0.3), 60_000),
    "fifoms_n16_guarded": Run(
        "fifoms", 16, _figure_traffic("fig4", 0.8), 9_000, guarded=True
    ),
    "fig4_sweep_pool": Sweep(1_700),
    "fig4_campaign_durable": Sweep(1_700, durable=True),
}

#: The recipe the mode ratios are measured on.
RATIO_WORKLOAD = "fig4_fifoms_n16"


def scaled_slots(num_slots: int, scale: int) -> int:
    """``num_slots`` at 1/``scale`` size, never below 10 slots."""
    return max(10, num_slots // scale)


def build_engine(recipe: Run, seed: int, num_slots: int) -> Any:
    """Switch + traffic + engine through the public constructors.

    Mirrors what ``run_simulation`` builds for the same arguments
    (vectorized backend, explicit ``sanitize``); the mode-ratio child
    checks the two digests against each other, which is what keeps them
    in step.
    """
    from repro.obs import Telemetry
    from repro.schedulers import make_switch
    from repro.sim import SimulationConfig, SimulationEngine
    from repro.sim.runner import build_traffic
    from repro.utils.rng import RngStreams

    streams = RngStreams(seed)
    traffic = build_traffic(
        recipe.traffic(), recipe.num_ports, rng=streams.get("traffic")
    )
    config = SimulationConfig(
        num_slots=num_slots,
        warmup_fraction=0.5,
        stability_window=max(100, num_slots // 100),
    )
    switch = make_switch(
        recipe.algorithm,
        recipe.num_ports,
        rng=streams.get("scheduler"),
        backend="vectorized",
    )
    return SimulationEngine(
        switch,
        traffic,
        config,
        seed=seed,
        algorithm_name=recipe.algorithm,
        telemetry=Telemetry(profile=True) if recipe.guarded else None,
        sanitize=recipe.guarded,
    )


def sweep_spec() -> Any:
    """The Fig. 4 spec restricted to SWEEP_LOADS (campaigns take the grid
    from the spec, not from a ``loads`` argument)."""
    from dataclasses import replace

    from repro.experiments.figures import get_figure

    return replace(get_figure("fig4"), loads=SWEEP_LOADS)
