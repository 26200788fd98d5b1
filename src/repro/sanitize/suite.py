""":class:`SanitizerSuite` — the runtime sanitizer tier's conductor.

The engine owns exactly three calls: :meth:`SanitizerSuite.attach` once
before slot 0, :meth:`SanitizerSuite.on_slot` once per slot, and
:meth:`SanitizerSuite.finish` after the loop. The suite fans those out
to the checker catalog (cheap checks every slot, deep kernel
cross-checks every ``deep_every`` slots and at finish), records every
:class:`~repro.sanitize.records.Violation`, optionally streams each one
through a :class:`repro.obs.sinks.MetricSink`, and decides when to fail:

* **hard-fail mode** raises :class:`SanitizerError` at the first
  violation (fail-fast for bisection);
* **record mode** collects everything and raises once at
  :meth:`finish` — CI gets the complete violation list as an artifact,
  and a sanitized run still can never report success with a non-empty
  list. ``fail_at_finish=False`` turns the suite into a pure observer
  (used by tests that *expect* violations).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sanitize.checkers import Checker, RunContext, default_checkers
from repro.sanitize.records import SanitizerError, Violation

if TYPE_CHECKING:
    from collections.abc import Sequence

    from repro.obs.sinks import MetricSink
    from repro.packet import Packet
    from repro.switch.base import SlotResult

__all__ = ["SanitizerSuite"]

#: Default cadence of the deep (kernel cross-check) passes, in slots.
DEFAULT_DEEP_EVERY = 64


class SanitizerSuite:
    """Runs the checker catalog over one simulation run."""

    def __init__(
        self,
        *,
        checkers: "Sequence[Checker] | None" = None,
        hard_fail: bool = False,
        fail_at_finish: bool = True,
        deep_every: int = DEFAULT_DEEP_EVERY,
        sink: "MetricSink | None" = None,
        max_violations: int = 1000,
    ) -> None:
        if deep_every < 0:
            raise ValueError(f"deep_every must be >= 0, got {deep_every}")
        self.checkers: list[Checker] = (
            list(checkers) if checkers is not None else default_checkers()
        )
        self.hard_fail = hard_fail
        self.fail_at_finish = fail_at_finish
        self.deep_every = deep_every
        self.sink = sink
        self.max_violations = max_violations
        self.violations: list[Violation] = []
        self.slots_checked = 0
        self.deep_passes = 0
        self._ctx: RunContext | None = None

    # ------------------------------------------------------------------ #
    # Engine-facing lifecycle
    # ------------------------------------------------------------------ #
    def attach(
        self,
        switch: Any,
        *,
        traffic: Any = None,
        injector: Any = None,
        algorithm: str = "unknown",
    ) -> None:
        """Bind the suite to one run's components before slot 0."""
        ctx = RunContext(
            switch=switch,
            injector=injector,
            traffic=traffic,
            algorithm=algorithm,
            rng_streams=_discover_streams(switch, traffic, injector),
        )
        self._ctx = ctx
        self._slot_checks = [  # only the checkers that override on_slot
            c.on_slot for c in self.checkers if type(c).on_slot is not Checker.on_slot
        ]
        for checker in self.checkers:
            self._record(checker.attach(ctx))

    def on_slot(
        self,
        slot: int,
        arrivals: "Sequence[Packet | None]",
        result: "SlotResult",
    ) -> None:
        """Run the cheap checks for one stepped slot (plus periodic deep)."""
        ctx = self._require_ctx()
        self.slots_checked += 1
        for check in self._slot_checks:
            found = check(ctx, slot, arrivals, result)
            if found:
                self._record(found)
        if self.deep_every and (slot + 1) % self.deep_every == 0:
            self._deep_pass(slot)

    def finish(self) -> None:
        """Final deep pass; in record mode, fail now if anything fired."""
        if self._ctx is not None:
            self._deep_pass(self._ctx.switch.current_slot)
        if self.violations and self.fail_at_finish:
            head = "; ".join(str(v) for v in self.violations[:3])
            more = len(self.violations) - 3
            suffix = f" (+{more} more)" if more > 0 else ""
            raise SanitizerError(
                f"sanitizer recorded {len(self.violations)} violation(s): "
                f"{head}{suffix}"
            )

    # ------------------------------------------------------------------ #
    def _deep_pass(self, slot: int) -> None:
        ctx = self._require_ctx()
        self.deep_passes += 1
        for checker in self.checkers:
            self._record(checker.deep_check(ctx, slot))

    def _record(self, found: list[Violation]) -> None:
        for violation in found:
            if len(self.violations) < self.max_violations:
                self.violations.append(violation)
                if self.sink is not None:
                    self.sink.emit(violation.to_dict())
            if self.hard_fail:
                raise SanitizerError(f"sanitizer violation: {violation}")

    def _require_ctx(self) -> RunContext:
        if self._ctx is None:
            raise SanitizerError(
                "SanitizerSuite.on_slot() before attach(); the engine must "
                "bind the suite to a run first"
            )
        return self._ctx

    # ------------------------------------------------------------------ #
    @property
    def ok(self) -> bool:
        """True when no checker has fired so far."""
        return not self.violations

    def report(self) -> dict[str, object]:
        """JSON-friendly summary (CLI output / CI artifacts)."""
        return {
            "enabled": True,
            "hard_fail": self.hard_fail,
            "slots_checked": self.slots_checked,
            "deep_passes": self.deep_passes,
            "checkers": [c.name for c in self.checkers],
            "violations": [v.to_dict() for v in self.violations],
        }


def _discover_streams(
    switch: Any, traffic: Any, injector: Any
) -> list[tuple[str, Any]]:
    """Collect the named RNG streams one run exposes.

    Only objects that look like :class:`numpy.random.Generator` (have a
    ``bit_generator``) qualify — deterministic schedulers hold no
    generator and simply contribute nothing. Schedulers keep their
    tie-break stream as ``_rng``.
    """
    candidates: list[tuple[str, Any]] = [
        ("scheduler", getattr(getattr(switch, "scheduler", None), "_rng", None)),
        ("traffic", getattr(traffic, "rng", None)),
    ]
    if injector is not None:
        fault_streams = getattr(injector, "rng_streams", None)
        if callable(fault_streams):
            candidates.extend(sorted(fault_streams().items()))
    return [
        (name, gen)
        for name, gen in candidates
        if gen is not None and hasattr(gen, "bit_generator")
    ]
