"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate untouched.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "FabricConflictError",
    "SchedulingError",
    "TrafficError",
    "BufferError_",
    "SimulationError",
    "UnstableSimulationError",
    "SweepPointError",
    "EquivalenceError",
    "CampaignError",
    "CampaignInterrupted",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """An invalid parameter or inconsistent combination of parameters."""


class FabricConflictError(ReproError):
    """A crossbar configuration violated the one-input-per-output rule."""


class SchedulingError(ReproError):
    """A scheduler produced a decision that violates switch constraints."""


class TrafficError(ReproError):
    """A traffic model produced an invalid packet or was misconfigured."""


class BufferError_(ReproError):
    """Misuse of the data-cell buffer pool (double free, unknown handle...).

    The trailing underscore avoids shadowing the builtin ``BufferError``.
    """


class SimulationError(ReproError):
    """The simulation engine detected an internal inconsistency."""


class UnstableSimulationError(SimulationError):
    """Raised (optionally) when the switch cannot sustain the offered load.

    The engine only raises this when ``raise_on_unstable=True``; by default
    instability is recorded on the result object instead, mirroring how the
    paper truncates curves at the saturation point.
    """


class EquivalenceError(SimulationError):
    """Production behaved observably differently from the reference.

    Raised by :mod:`repro.verify.grid` when a grid case's run
    trips a sanitizer checker — the reference shadow at the first slot
    whose decision, counters or queue state differ from the reference's.
    """


class CampaignError(ReproError):
    """A durable campaign store is unusable or inconsistent.

    Raised by :mod:`repro.campaign` when a store directory cannot be
    created, its manifest disagrees with the requested configuration, or
    a resume targets a directory that was never a campaign store.
    """


class CampaignInterrupted(CampaignError):
    """A durable campaign stopped early with a resumable checkpoint.

    Raised by the campaign supervisor after a SIGINT/SIGTERM (or an
    explicit point budget) once the journal has been flushed: every
    completed point is on disk and ``repro-sim campaign resume`` will
    pick up exactly where the run stopped. The CLI maps this to exit
    code 3 so wrappers can distinguish "resume me" from hard failures.
    """

    def __init__(
        self, message: str, *, points_done: int = 0, points_total: int = 0
    ) -> None:
        super().__init__(message)
        self.points_done = points_done
        self.points_total = points_total

    def __reduce__(self):
        """Keep the class picklable despite the keyword-only constructor."""
        return (
            _rebuild_campaign_interrupted,
            (self.args[0] if self.args else "", self.points_done, self.points_total),
        )


def _rebuild_campaign_interrupted(
    message: str, points_done: int, points_total: int
) -> "CampaignInterrupted":
    return CampaignInterrupted(
        message, points_done=points_done, points_total=points_total
    )


class SweepPointError(SimulationError):
    """One sweep grid point failed after its configured retries.

    Raised by the experiment harness when a worker keeps failing on the
    same point; ``point`` carries the originating
    :class:`~repro.experiments.spec.SweepPoint` so the caller can see
    exactly which (algorithm, load, seed) job was poisoned.

    Worker exceptions cross a ``ProcessPoolExecutor`` boundary by pickle,
    and the default exception reduction re-calls ``cls(*args)`` — which
    breaks for multi-argument constructors. The explicit ``__reduce__``
    keeps this class (and anything subclassing it) round-trippable.
    """

    def __init__(self, message: str, point: object | None = None) -> None:
        super().__init__(message)
        self.point = point

    def __reduce__(self):
        """Pickle as ``(class, (message, point))`` — see class docstring."""
        return (type(self), (self.args[0] if self.args else "", self.point))
