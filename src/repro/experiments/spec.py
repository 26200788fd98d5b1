"""Experiment specification types.

A :class:`FigureSpec` captures everything needed to regenerate one paper
figure: which algorithms run, which effective loads form the x-axis, how a
load maps to traffic-model parameters, and which metric panels the figure
plots. The sweep runner turns a spec into a grid of :class:`SweepPoint`
jobs (one per algorithm × load) that are independent and can execute in
worker processes.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError

__all__ = ["SweepPoint", "FigureSpec", "METRIC_LABELS"]

#: Metric keys (see SimulationSummary.metric) -> human panel labels.
METRIC_LABELS: dict[str, str] = {
    "input_delay": "Average input oriented delay (slots)",
    "output_delay": "Average output oriented delay (slots)",
    "avg_queue": "Average queue size (cells)",
    "max_queue": "Maximum queue size (cells)",
    "rounds": "Average convergence rounds",
    "throughput": "Carried load (cells/output/slot)",
}


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One independent simulation job of a figure sweep."""

    figure_id: str
    algorithm: str
    load: float
    num_ports: int
    traffic_spec: dict[str, Any]
    num_slots: int
    seed: int
    switch_kwargs: dict[str, Any] = field(default_factory=dict)
    #: Collect a metrics+profile telemetry snapshot in the worker; it
    #: returns inside ``SimulationSummary.telemetry`` and the parent
    #: aggregates snapshots with ``repro.obs.aggregate_telemetry``.
    collect_telemetry: bool = False
    #: Optional fault-injection scenario for this point: a name from
    #: :data:`repro.faults.FAULT_SCENARIOS` or a spec dict (both are
    #: picklable, so points cross worker-process boundaries intact).
    fault_scenario: str | dict[str, Any] | None = None


@dataclass(frozen=True, slots=True)
class FigureSpec:
    """Declarative description of one paper figure (or ablation)."""

    figure_id: str
    title: str
    description: str
    num_ports: int
    algorithms: tuple[str, ...]
    loads: tuple[float, ...]
    #: load -> traffic spec dict for build_traffic().
    traffic_for_load: Callable[[float], dict[str, Any]]
    metrics: tuple[str, ...]
    #: Per-algorithm constructor overrides.
    switch_kwargs: dict[str, dict[str, Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.algorithms:
            raise ConfigurationError(f"{self.figure_id}: no algorithms")
        if not self.loads:
            raise ConfigurationError(f"{self.figure_id}: no load points")
        unknown = [m for m in self.metrics if m not in METRIC_LABELS]
        if unknown:
            raise ConfigurationError(
                f"{self.figure_id}: unknown metrics {unknown}; "
                f"known: {sorted(METRIC_LABELS)}"
            )

    # ------------------------------------------------------------------ #
    def points(
        self,
        *,
        num_slots: int,
        seed: int = 0,
        loads: Sequence[float] | None = None,
        algorithms: Sequence[str] | None = None,
        fault_scenario: str | dict[str, Any] | None = None,
    ) -> list[SweepPoint]:
        """Materialize the sweep grid.

        Each point gets a distinct deterministic seed derived from the
        base seed and its grid position, so parallel execution, subsets
        and re-runs all reproduce identical samples per point.
        ``fault_scenario`` applies one fault-injection scenario to every
        point of the grid.
        """
        loads = tuple(loads if loads is not None else self.loads)
        algorithms = tuple(algorithms if algorithms is not None else self.algorithms)
        jobs = []
        for a_idx, alg in enumerate(algorithms):
            for l_idx, load in enumerate(loads):
                jobs.append(
                    SweepPoint(
                        figure_id=self.figure_id,
                        algorithm=alg,
                        load=float(load),
                        num_ports=self.num_ports,
                        traffic_spec=self.traffic_for_load(float(load)),
                        num_slots=num_slots,
                        seed=seed * 1_000_003 + a_idx * 1009 + l_idx,
                        switch_kwargs=dict(self.switch_kwargs.get(alg, {})),
                        fault_scenario=fault_scenario,
                    )
                )
        return jobs
