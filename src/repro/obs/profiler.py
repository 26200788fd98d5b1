"""Phase-level wall-clock attribution for the simulation loop.

The engine's slot cycle has four phases — traffic generation, the switch's
schedule-and-transmit step, statistics collection, and ``invariants``: the
stability monitor and a sanitized run's per-slot checks (whose deep pass
walks the switch's own invariants). :class:`PhaseProfiler` accumulates ``time.perf_counter_ns`` deltas
per phase and reports totals, shares and per-slot costs, answering "where
does a run actually spend its time" before any optimisation PR.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from typing import TypeVar

__all__ = ["PHASES", "PhaseProfiler", "NoopProfiler", "NOOP_PROFILER", "clock_ns"]

#: The one sanctioned wall-clock read (`repro.lint` rule DET001): code
#: outside repro/obs that legitimately needs timing — the campaign
#: supervisor, the sweep pool's reaper — imports this alias instead of
#: the time module, keeping every wall-clock dependency explicit and
#: greppable.
clock_ns = time.perf_counter_ns

_T = TypeVar("_T")

#: Canonical engine phases, in slot-cycle order.
PHASES: tuple[str, ...] = ("traffic_gen", "schedule", "stats", "invariants")


class PhaseProfiler:
    """Accumulates nanoseconds per named phase."""

    __slots__ = ("_ns",)

    enabled = True

    def __init__(self) -> None:
        self._ns: dict[str, int] = {}

    def add(self, phase: str, ns: int) -> None:
        """Attribute ``ns`` nanoseconds of wall-clock to ``phase``."""
        self._ns[phase] = self._ns.get(phase, 0) + ns

    def timed(
        self, phase: str, fn: Callable[..., _T]
    ) -> Callable[..., _T]:
        """A delegate for ``fn`` that charges every call to ``phase``.

        This is how the engine's one slot loop is profiled: it swaps its
        core callables for timed delegates before the loop starts, so an
        unprofiled run executes the same loop body with no clock reads.
        The phase is reported even if the delegate is never called.
        """
        ns = self._ns
        ns.setdefault(phase, 0)

        def delegate(*args: object) -> _T:
            start = clock_ns()
            out = fn(*args)
            ns[phase] += clock_ns() - start
            return out

        return delegate

    def total_ns(self, phase: str | None = None) -> int:
        """Nanoseconds recorded for one phase (or all phases summed)."""
        if phase is not None:
            return self._ns.get(phase, 0)
        return sum(self._ns.values())

    def report(self, slots: int | None = None) -> dict[str, object]:
        """Breakdown dict: per-phase totals, shares and per-slot costs.

        ``slots`` (the number of simulated slots) enables the per-slot
        column; share is each phase's fraction of the profiled total.
        A non-positive ``slots`` (0-slot run) is treated as unknown so
        the breakdown never divides by zero.
        """
        if slots is not None and slots <= 0:
            slots = None
        total = self.total_ns()
        phases: dict[str, dict[str, float]] = {}
        ordered = [p for p in PHASES if p in self._ns]
        ordered += sorted(p for p in self._ns if p not in PHASES)
        for phase in ordered:
            ns = self._ns[phase]
            entry: dict[str, float] = {
                "total_ms": ns / 1e6,
                "share": ns / total if total else 0.0,
            }
            if slots:
                entry["per_slot_us"] = ns / slots / 1e3
            phases[phase] = entry
        out: dict[str, object] = {"total_ms": total / 1e6, "phases": phases}
        if slots:
            out["slots"] = slots
            if total:
                out["slots_per_sec"] = slots / (total / 1e9)
        return out


class NoopProfiler:
    """Null-object profiler for the disabled path."""

    __slots__ = ()

    enabled = False

    def add(self, phase: str, ns: int) -> None:
        """Discard the observation (profiling is off)."""

    def total_ns(self, phase: str | None = None) -> int:
        """Always 0 (profiling is off)."""
        return 0

    def report(self, slots: int | None = None) -> dict[str, object]:
        """An empty breakdown (profiling is off)."""
        return {"total_ms": 0.0, "phases": {}}


#: Shared singleton null profiler.
NOOP_PROFILER = NoopProfiler()
