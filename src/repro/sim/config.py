"""Simulation run configuration.

The defaults mirror the paper's setup: runs of 10^6 slots with a warmup of
half the run ("typically half of the total simulation time"), stopped
early if the switch cannot sustain the load. Benchmarks override
``num_slots`` downward for wall-clock reasons (DESIGN.md §5, item 7).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["SimulationConfig"]

#: The paper's simulation length.
PAPER_NUM_SLOTS = 1_000_000

#: Slots of arrivals the engine draws per traffic call unless told
#: otherwise (``SimulationConfig.slot_chunk``).
DEFAULT_SLOT_CHUNK = 64


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """Knobs of one simulation run.

    Attributes
    ----------
    num_slots:
        Total simulated slots (including warmup).
    warmup_fraction:
        Fraction of ``num_slots`` discarded as warmup (paper: 0.5).
    max_backlog:
        Instability ceiling: when total pending cells exceed this the run
        stops early and is flagged unstable. ``None`` disables the
        ceiling (the growth detector still applies unless also disabled).
    stability_window:
        Slots between backlog inspections by the growth detector; 0
        disables growth detection.
    stability_growth_windows:
        Consecutive strictly-growing windows that trigger the unstable
        flag (filters stochastic wiggle from real divergence).
    raise_on_unstable:
        Raise :class:`~repro.errors.UnstableSimulationError` instead of
        flagging.
    extended_stats:
        Also collect the delay histogram (exact percentiles) and the
        multicast fanout-splitting tracker; results land in
        ``SimulationSummary.extra``.
    slot_chunk:
        Slots of arrivals the engine draws from the traffic model in one
        :meth:`~repro.traffic.base.TrafficModel.next_slots` call, ahead
        of the slots that consume them (default 64; 1 draws each slot's
        arrivals just before stepping it). Bernoulli traffic draws such
        a window in a few capped block draws instead of one set per
        slot. The prefetch never crosses a stability-window boundary or
        the run's end, composes with faults, the sanitizer and
        telemetry, and the slot stream — the traffic generator's final
        state included — is bit-identical for every K.
    """

    num_slots: int = PAPER_NUM_SLOTS
    warmup_fraction: float = 0.5
    max_backlog: int | None = 200_000
    stability_window: int = 2_000
    stability_growth_windows: int = 8
    raise_on_unstable: bool = False
    extended_stats: bool = False
    slot_chunk: int = DEFAULT_SLOT_CHUNK

    def __post_init__(self) -> None:
        if self.num_slots < 1:
            raise ConfigurationError(f"num_slots must be >= 1, got {self.num_slots}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigurationError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )
        if self.max_backlog is not None and self.max_backlog < 1:
            raise ConfigurationError(
                f"max_backlog must be >= 1 or None, got {self.max_backlog}"
            )
        if self.stability_window < 0:
            raise ConfigurationError(
                f"stability_window must be >= 0, got {self.stability_window}"
            )
        if self.stability_growth_windows < 1:
            raise ConfigurationError(
                "stability_growth_windows must be >= 1, got "
                f"{self.stability_growth_windows}"
            )
        if self.slot_chunk < 1:
            raise ConfigurationError(
                f"slot_chunk must be >= 1, got {self.slot_chunk}"
            )

    @property
    def warmup_slots(self) -> int:
        """First slot index that counts toward statistics."""
        return int(self.num_slots * self.warmup_fraction)
