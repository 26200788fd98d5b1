"""Toggleable runtime sanitizer tier for the simulation loop.

The paper's correctness claims — cell conservation, valid crossbar
matchings, FIFO/HOL discipline per multicast VOQ — are mechanical
per-slot properties. This package checks them *while a run executes*,
as a third independent oracle next to the unit tests and the opt-in
reference shadow (:mod:`repro.verify.shadow`), so a future kernel
backend cannot silently break an invariant the spot tests miss.

Enabling (the plain path stays untouched when off — guard-tested):

* environment: ``REPRO_SANITIZE=1`` (record mode: collect every
  violation, fail at end of run) or ``REPRO_SANITIZE=hard`` (fail-fast
  on the first violation — CI bisection mode). ``0``/unset = off.
* CLI: ``repro run ... --sanitize`` (see ``repro run --help``).
* API: pass ``sanitize=True`` (or a preconfigured
  :class:`SanitizerSuite`) to :class:`~repro.sim.engine.SimulationEngine`
  / :func:`~repro.sim.runner.run_simulation`.

Violations are structured :class:`~repro.sanitize.records.Violation`
records; wire a :class:`repro.obs.sinks.MetricSink` into the suite to
stream them (``kind == "sanitizer"``). See docs/sanitizers.md for the
checker catalog and the record schema.
"""

from __future__ import annotations

import os
from typing import Any

from repro.sanitize.checkers import (
    Checker,
    ConservationChecker,
    FifoOrderChecker,
    MatchingValidityChecker,
    RngIsolationChecker,
    RunContext,
    StateCrossChecker,
    default_checkers,
)
from repro.sanitize.records import SanitizerError, Violation
from repro.sanitize.suite import SanitizerSuite

__all__ = [
    "SANITIZE_ENV",
    "Checker",
    "ConservationChecker",
    "FifoOrderChecker",
    "MatchingValidityChecker",
    "RngIsolationChecker",
    "RunContext",
    "SanitizerError",
    "SanitizerSuite",
    "StateCrossChecker",
    "Violation",
    "default_checkers",
    "resolve_sanitizer",
    "sanitize_mode",
    "suite_from_env",
]

#: Environment variable controlling the default sanitizer mode.
SANITIZE_ENV = "REPRO_SANITIZE"

_OFF_VALUES = frozenset({"", "0", "off", "false", "no", "none"})
_HARD_VALUES = frozenset({"2", "hard", "fail", "fail-fast"})


def sanitize_mode(value: str | None = None) -> str:
    """Resolve a mode string: ``"off"``, ``"record"`` or ``"hard"``.

    ``value`` defaults to ``$REPRO_SANITIZE``. Unset/falsey spellings are
    off; ``hard``/``2`` fail fast; anything else (``1``, ``on``, ...) is
    record mode.
    """
    raw = (
        value if value is not None else os.environ.get(SANITIZE_ENV, "")
    ).strip().lower()
    if raw in _OFF_VALUES:
        return "off"
    if raw in _HARD_VALUES:
        return "hard"
    return "record"


def suite_from_env(**kwargs: Any) -> SanitizerSuite | None:
    """Build a suite per ``$REPRO_SANITIZE``, or None when off.

    Keyword arguments are forwarded to :class:`SanitizerSuite` (e.g.
    ``sink=...``); ``hard_fail`` is derived from the mode.
    """
    mode = sanitize_mode()
    if mode == "off":
        return None
    return SanitizerSuite(hard_fail=(mode == "hard"), **kwargs)


def resolve_sanitizer(
    option: "SanitizerSuite | bool | None",
) -> SanitizerSuite | None:
    """Normalize the engine's ``sanitize=`` parameter to a suite or None.

    ``None`` consults the environment (so ``REPRO_SANITIZE=1`` sanitizes
    a whole test suite without touching call sites), ``False`` forces
    off, ``True`` builds a default record-mode suite, and an existing
    :class:`SanitizerSuite` is used as-is.
    """
    if option is None:
        return suite_from_env()
    if option is False:
        return None
    if option is True:
        mode = sanitize_mode()
        return SanitizerSuite(hard_fail=(mode == "hard"))
    return option
