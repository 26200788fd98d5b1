"""Numerical saturation-point search.

The paper reads saturation points off its plots ("TATRA becomes unstable
when the effective load goes beyond 80%"); this module measures them:
a bisection over the offered load, classifying each probe run as stable
or saturated, converging to the throughput wall within a requested
tolerance. Tests check it against Karol's limit.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError
from repro.sim.config import SimulationConfig
from repro.sim.runner import run_simulation

__all__ = ["SaturationResult", "find_saturation"]


@dataclass(frozen=True, slots=True)
class SaturationResult:
    """Outcome of one bisection search."""

    algorithm: str
    lower: float  # highest load classified stable
    upper: float  # lowest load classified saturated
    probes: int

    @property
    def estimate(self) -> float:
        """Midpoint estimate of the saturation load."""
        return 0.5 * (self.lower + self.upper)

    @property
    def uncertainty(self) -> float:
        return 0.5 * (self.upper - self.lower)

    def __str__(self) -> str:
        return (
            f"{self.algorithm}: saturation ~{self.estimate:.3f} "
            f"± {self.uncertainty:.3f} ({self.probes} probes)"
        )


def _is_saturated(
    algorithm: str,
    traffic_spec: dict[str, Any],
    num_ports: int,
    num_slots: int,
    seed: int,
    **switch_kwargs: Any,
) -> bool:
    """Classify one probe: True when the switch cannot carry the load.

    Uses the engine's instability detector plus a delivery-ratio check
    (backlog worth more than 5% of the offered cells also counts as
    saturated — near the wall the growth detector can be slow).
    """
    cfg = SimulationConfig(
        num_slots=num_slots,
        warmup_fraction=0.25,
        stability_window=max(100, num_slots // 100),
    )
    summary = run_simulation(
        algorithm, num_ports, traffic_spec, seed=seed, config=cfg, **switch_kwargs
    )
    if summary.unstable:
        return True
    total_offered = summary.cells_offered
    if total_offered == 0:
        return False
    return summary.final_backlog > 0.05 * total_offered


def find_saturation(
    algorithm: str,
    traffic_for_load: Callable[[float], dict[str, Any]],
    *,
    num_ports: int = 16,
    lo: float = 0.05,
    hi: float = 1.0,
    tol: float = 0.02,
    num_slots: int = 6_000,
    seed: int = 0,
    **switch_kwargs: Any,
) -> SaturationResult:
    """Bisect the offered load for ``algorithm``'s throughput wall.

    ``traffic_for_load`` maps an effective load to a traffic spec (the
    same callables the figure specs use). ``lo`` must be stable and
    ``hi`` saturated — both are probed first and a
    :class:`~repro.errors.ConfigurationError` explains a bad bracket.
    """
    if not 0 < lo < hi:
        raise ConfigurationError(f"need 0 < lo < hi, got {lo}, {hi}")
    if tol <= 0:
        raise ConfigurationError(f"tol must be > 0, got {tol}")
    probes = 0

    def probe(load: float) -> bool:
        nonlocal probes
        probes += 1
        return _is_saturated(
            algorithm, traffic_for_load(load), num_ports, num_slots,
            seed + probes, **switch_kwargs,
        )

    if probe(lo):
        raise ConfigurationError(
            f"{algorithm} already saturated at lo={lo}; lower the bracket"
        )
    if not probe(hi):
        # No wall inside the bracket: report it as at-or-above hi.
        return SaturationResult(
            algorithm=algorithm, lower=hi, upper=hi, probes=probes
        )
    lower, upper = lo, hi
    while upper - lower > tol:
        mid = 0.5 * (lower + upper)
        if probe(mid):
            upper = mid
        else:
            lower = mid
    return SaturationResult(
        algorithm=algorithm, lower=lower, upper=upper, probes=probes
    )
