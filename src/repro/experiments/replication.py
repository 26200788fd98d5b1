"""Replicated runs and confidence intervals.

Single simulation runs are point estimates; publication-grade comparisons
replicate each (algorithm, load) point across independent seeds and
report mean ± confidence interval. This module provides:

* :func:`run_replicated` — k independent-seed runs of one configuration
  (optionally in a process pool),
* :class:`ReplicatedMetric` — mean / sample std / Student-t CI for one
  metric across replicas,
* :func:`compare` — Welch's t-test between two algorithms on a metric,
  for "is FIFOMS really better here or is it noise?" questions.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy import stats as sps

from repro.errors import ConfigurationError
from repro.sim.runner import run_simulation
from repro.stats.summary import SimulationSummary

__all__ = ["ReplicatedMetric", "run_replicated", "metric_over", "compare"]


@dataclass(frozen=True, slots=True)
class ReplicatedMetric:
    """Mean ± CI of one metric over independent replicas."""

    name: str
    values: tuple[float, ...]
    confidence: float

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        """Sample (ddof=1) standard deviation; 0 for a single replica."""
        return float(np.std(self.values, ddof=1)) if self.n > 1 else 0.0

    @property
    def half_width(self) -> float:
        """Student-t half width of the CI (0 for a single replica)."""
        if self.n < 2:
            return 0.0
        t = sps.t.ppf(0.5 + self.confidence / 2.0, df=self.n - 1)
        return float(t * self.std / math.sqrt(self.n))

    @property
    def interval(self) -> tuple[float, float]:
        hw = self.half_width
        return (self.mean - hw, self.mean + hw)

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g} (n={self.n})"


def _run_one(args: tuple) -> SimulationSummary:
    algorithm, num_ports, traffic_spec, num_slots, seed, kwargs = args
    return run_simulation(
        algorithm, num_ports, traffic_spec, num_slots=num_slots, seed=seed, **kwargs
    )


def run_replicated(
    algorithm: str,
    num_ports: int,
    traffic_spec: dict[str, Any],
    *,
    num_slots: int,
    replicas: int = 5,
    base_seed: int = 0,
    workers: int | None = None,
    **kwargs: Any,
) -> list[SimulationSummary]:
    """Run ``replicas`` independent-seed copies of one configuration.

    Deliberately a plain ``pool.map`` rather than a batch on
    :class:`~repro.experiments.sweep.PointPool`: there is no watchdog or
    retry policy to share, and a failing replica raises its own exception
    here where the point pool would hand back an outcome tuple.
    """
    if replicas < 1:
        raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
    jobs = [
        (algorithm, num_ports, dict(traffic_spec), num_slots, base_seed + 7919 * r, dict(kwargs))
        for r in range(replicas)
    ]
    if workers is None:
        workers = min(os.cpu_count() or 1, replicas) if replicas > 2 else 1
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_one, jobs))
    return [_run_one(j) for j in jobs]


def metric_over(
    summaries: list[SimulationSummary], metric: str, *, confidence: float = 0.95
) -> ReplicatedMetric:
    """Aggregate one metric across replicas into a CI."""
    if not summaries:
        raise ConfigurationError("no summaries to aggregate")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence must be in (0, 1), got {confidence}")
    values = tuple(s.metric(metric) for s in summaries)
    if any(math.isnan(v) for v in values):
        raise ConfigurationError(
            f"metric {metric!r} is NaN in some replicas (unstable runs?)"
        )
    return ReplicatedMetric(name=metric, values=values, confidence=confidence)


def compare(
    a: list[SimulationSummary],
    b: list[SimulationSummary],
    metric: str,
) -> tuple[float, float]:
    """Welch's t-test on ``metric`` between two replica sets.

    Returns (t statistic, two-sided p value); a small p with a negative t
    means algorithm `a` has the significantly smaller metric.
    """
    va = [s.metric(metric) for s in a]
    vb = [s.metric(metric) for s in b]
    if len(va) < 2 or len(vb) < 2:
        raise ConfigurationError("need >= 2 replicas on both sides to compare")
    t, p = sps.ttest_ind(va, vb, equal_var=False)
    return float(t), float(p)
