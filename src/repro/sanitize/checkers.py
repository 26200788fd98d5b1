"""The per-slot checker catalog behind :class:`~repro.sanitize.SanitizerSuite`.

Each checker watches one invariant family of the paper's correctness
claims (see docs/sanitizers.md for the catalog). Checkers are cheap by
construction: the per-slot hooks are bookkeeping over the slot's rows; anything
that walks full queue state (deep kernel cross-checks) runs only on the
suite's periodic deep passes.

Checkers observe through the same public seams the engine already uses —
``SlotResult``, ``total_backlog()``, ``check_invariants()``, the fault
injector's loss ledger — so a passing sanitizer really does certify the
run the engine saw, not a parallel model.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import ReproError
from repro.sanitize.records import Violation
from repro.utils.bitsets import iter_bits

if TYPE_CHECKING:
    from collections.abc import Sequence

    from repro.packet import Packet
    from repro.switch.base import SlotResult

__all__ = [
    "Checker",
    "ConservationChecker",
    "FifoOrderChecker",
    "MatchingValidityChecker",
    "RngIsolationChecker",
    "RunContext",
    "StateCrossChecker",
    "default_checkers",
]


@dataclass(slots=True)
class RunContext:
    """What one sanitized run exposes to its checkers.

    ``switch`` and ``injector`` are duck-typed on purpose: the checkers
    read them through the public seams the engine uses, and see exactly
    what the engine sees.
    """

    switch: Any
    injector: Any = None
    traffic: Any = None
    algorithm: str = "unknown"
    #: Named RNG streams discovered at attach time (for isolation checks).
    rng_streams: list[tuple[str, Any]] = field(default_factory=list)
    #: Switch facts fixed for the run, read once for the per-slot checks.
    crossbar: bool = field(init=False)
    fifo_per_pair: bool = field(init=False)
    counts_deliveries: bool = field(init=False)

    def __post_init__(self) -> None:
        discipline = getattr(self.switch, "matching_discipline", "crossbar")
        self.crossbar = discipline == "crossbar"
        self.fifo_per_pair = getattr(self.switch, "fifo_per_pair", True)
        counter = getattr(self.switch, "cells_delivered", None)
        self.counts_deliveries = counter is not None


class Checker:
    """One invariant family. Subclasses override the hooks they need."""

    #: Catalog name (stable; used in violation records and docs).
    name: str = "checker"

    def attach(self, ctx: RunContext) -> list[Violation]:
        """One-time setup before slot 0; may already report violations."""
        return []

    def on_slot(
        self,
        ctx: RunContext,
        slot: int,
        arrivals: "Sequence[Packet | None]",
        result: "SlotResult",
    ) -> list[Violation]:
        """Cheap per-slot check, run on every sanitized slot."""
        return []

    def deep_check(self, ctx: RunContext, slot: int) -> list[Violation]:
        """Expensive cross-check, run on periodic deep passes + at finish."""
        return []

    # ------------------------------------------------------------------ #
    def violation(
        self, ctx: RunContext, slot: int, message: str, **context: object
    ) -> Violation:
        """Build one :class:`Violation` attributed to this checker."""
        return Violation(
            checker=self.name,
            slot=slot,
            message=message,
            algorithm=ctx.algorithm,
            context=tuple(sorted(context.items())),
        )


class ConservationChecker(Checker):
    """Cell conservation: offered = delivered + dropped + queued, every slot.

    Runs the engine's end-of-run conservation audit continuously, and
    cross-checks two independent ledgers against the per-slot stream:

    * the switch's own lifetime ``cells_delivered`` counter
      (:mod:`repro.switch.base` bookkeeping) must equal the sum of
      per-slot deliveries; and
    * with fault injection active, the injector's loss ledger must stay
      consistent — fault-attributed drops are a subset of all observed
      drops (drop-tail losses add to the observed side only), and lost
      grants must agree exactly (both sides count the same prune events).
    """

    name = "conservation"

    def __init__(self) -> None:
        self.offered = 0
        self.delivered = 0
        self.dropped = 0
        self.grants_lost = 0

    def on_slot(
        self,
        ctx: RunContext,
        slot: int,
        arrivals: "Sequence[Packet | None]",
        result: "SlotResult",
    ) -> list[Violation]:
        for p in filter(None, arrivals):
            self.offered += len(p.destinations)
        self.delivered += result.cells_delivered
        if result.dropped_packets:
            self.dropped += result.cells_dropped
        self.grants_lost += result.grants_lost
        out: list[Violation] = []
        backlog = int(ctx.switch.total_backlog())
        expected = self.delivered + self.dropped + backlog
        if self.offered != expected:
            out.append(
                self.violation(
                    ctx,
                    slot,
                    "cell conservation broken: offered cells != delivered "
                    "+ dropped + queued",
                    offered=self.offered,
                    delivered=self.delivered,
                    dropped=self.dropped,
                    backlog=backlog,
                )
            )
        if ctx.counts_deliveries and ctx.switch.cells_delivered != self.delivered:
            out.append(
                self.violation(
                    ctx,
                    slot,
                    "switch lifetime delivery counter disagrees with the "
                    "per-slot delivery stream",
                    switch_counter=ctx.switch.cells_delivered,
                    slot_stream=self.delivered,
                )
            )
        if ctx.injector is not None:
            out.extend(self._check_ledger(ctx, slot))
        return out

    def _check_ledger(self, ctx: RunContext, slot: int) -> list[Violation]:
        """Fault-ledger consistency (the ``repro.faults`` seam)."""
        ledger = ctx.injector.ledger()
        out: list[Violation] = []
        if int(ledger["cells_dropped"]) > self.dropped:
            out.append(
                self.violation(
                    ctx,
                    slot,
                    "fault ledger counts more dropped cells than the run "
                    "observed; a drop was charged but never surfaced",
                    ledger_cells_dropped=int(ledger["cells_dropped"]),
                    observed_dropped=self.dropped,
                )
            )
        if int(ledger["grants_lost"]) != self.grants_lost:
            out.append(
                self.violation(
                    ctx,
                    slot,
                    "fault ledger grants_lost disagrees with the per-slot "
                    "grant-loss stream",
                    ledger_grants_lost=int(ledger["grants_lost"]),
                    observed_grants_lost=self.grants_lost,
                )
            )
        return out


class MatchingValidityChecker(Checker):
    """Per-slot matching validity, the Tiny Tera matrix constraints.

    * at most one cell delivered per output per slot (always);
    * for crossbar-disciplined switches
      (``switch.matching_discipline == "crossbar"``), all of one input's
      deliveries in a slot carry the *same* data cell (multicast fanout
      is one cell to many outputs, never two cells from one input);
    * a slot's rows are stamped with the slot they happen in; and
    * with fault injection active, no delivery crosses a down input, a
      down output, or a failed crosspoint (grants ⊆ the fault mask).
    """

    name = "matching"

    def on_slot(
        self,
        ctx: RunContext,
        slot: int,
        arrivals: "Sequence[Packet | None]",
        result: "SlotResult",
    ) -> list[Violation]:
        out: list[Violation] = []
        state = ctx.injector.current if ctx.injector is not None else None
        masked = state is not None and state.degraded
        if result.rows and result.slot != slot:
            out.append(
                self.violation(
                    ctx,
                    slot,
                    "delivery stamped with a foreign service slot",
                    service_slot=result.slot,
                )
            )
        outputs_seen = inputs_seen = repeated = 0  # bitmasks
        for packet, mask in result.rows:
            clash = outputs_seen & mask
            if clash:
                for j in iter_bits(clash):
                    out.append(
                        self.violation(
                            ctx,
                            slot,
                            "two cells delivered to one output in one slot",
                            output=j,
                        )
                    )
            outputs_seen |= mask
            src = packet.input_port
            repeated |= inputs_seen & 1 << src
            inputs_seen |= 1 << src
            if masked:
                for j in iter_bits(mask):
                    out.extend(self._check_mask(ctx, slot, state, src, j))
        if repeated and ctx.crossbar:
            for src in iter_bits(repeated):
                pids = {p.packet_id for p, _ in result.rows if p.input_port == src}
                if len(pids) > 1:
                    out.append(
                        self.violation(
                            ctx,
                            slot,
                            "input delivered two distinct data cells in one "
                            "slot through a crossbar matching",
                            input=src,
                            distinct_cells=len(pids),
                        )
                    )
        return out

    def _check_mask(
        self, ctx: RunContext, slot: int, state: Any, i: int, j: int
    ) -> list[Violation]:
        checks = (
            (state.input_is_down(i), "delivery from a down input port", {"input": i}),
            (state.output_is_down(j), "delivery to a down output port", {"output": j}),
            (
                (i, j) in state.failed_crosspoints,
                "delivery through a failed crosspoint",
                {"input": i, "output": j},
            ),
        )
        return [
            self.violation(ctx, slot, message, **context)
            for hit, message, context in checks
            if hit
        ]


class FifoOrderChecker(Checker):
    """FIFO/HOL discipline per (input, output) pair — the FIFOMS order.

    For switches that guarantee FIFO service per pair
    (``switch.fifo_per_pair``), the arrival slots of cells delivered on
    any one (input, output) pair must be non-decreasing over the run: a
    younger cell overtaking an older sibling in the same multicast VOQ
    means HOL discipline broke. Class-based schedulers (ESLIP) declare
    ``fifo_per_pair = False`` and are skipped, same as in the property
    suites.
    """

    name = "fifo_order"

    def __init__(self) -> None:
        #: Per input, the arrival last served on each output (-1: none).
        self._last_served: defaultdict[int, list[int]] = defaultdict(list)

    def on_slot(
        self,
        ctx: RunContext,
        slot: int,
        arrivals: "Sequence[Packet | None]",
        result: "SlotResult",
    ) -> list[Violation]:
        out: list[Violation] = []
        if not ctx.fifo_per_pair:
            return out
        last_served = self._last_served
        for packet, mask in result.rows:
            row, arrival = last_served[packet.input_port], packet.arrival_slot
            if mask >> len(row):
                row.extend([-1] * (mask.bit_length() - len(row)))
            while mask:
                j = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                prev = row[j]
                if arrival < prev:
                    out.append(
                        self.violation(
                            ctx,
                            slot,
                            "FIFO order broken: a younger cell overtook an "
                            "older one on the same (input, output) pair",
                            input=packet.input_port,
                            output=j,
                            served_arrival=arrival,
                            previous_arrival=prev,
                        )
                    )
                else:
                    row[j] = arrival
        return out


class StateCrossChecker(Checker):
    """The switch's own deep walk, on deep passes.

    Runs ``check_invariants()`` and turns a raise into a structured
    violation instead of a crash. Comparing the kernel seam's answers
    (``state_arrays()``, ``total_backlog()``, ``queue_sizes()``,
    ``harvest_slot_stats()``) is the reference shadow's job: it holds them
    to an independent model. A comparison of the seam with itself killed
    no mutant that the shadow, the pins or the conservation checker miss
    (the ``*-lies`` rows of ``tests/data/mutants.json``).
    """

    name = "state_cross"

    def deep_check(self, ctx: RunContext, slot: int) -> list[Violation]:
        try:
            ctx.switch.check_invariants()
        except ReproError as exc:
            return [
                self.violation(
                    ctx,
                    slot,
                    f"switch.check_invariants() failed: {exc}",
                    error=type(exc).__name__,
                )
            ]
        return []


class RngIsolationChecker(Checker):
    """RNG stream-isolation tripwires.

    Every stochastic component must draw from its own named stream (one
    root seed, one SeedSequence tree — see ``repro.utils.rng``). The
    checker collects the generators visible at attach time (scheduler
    tie-break stream, traffic stream, the injector's ``faults.*``
    streams) and trips when two *named* streams are the same object
    (aliasing: one component silently advances another's sequence) or
    carry identical bit-generator state (a seeding bug collapsed two
    streams onto one sequence). States are re-compared on deep passes —
    two independent PCG64 streams never converge, so equality mid-run
    means aliasing was introduced after attach.
    """

    name = "rng_isolation"

    def attach(self, ctx: RunContext) -> list[Violation]:
        return self._check(ctx, slot=0)

    def deep_check(self, ctx: RunContext, slot: int) -> list[Violation]:
        return self._check(ctx, slot)

    def _check(self, ctx: RunContext, slot: int) -> list[Violation]:
        out: list[Violation] = []
        streams = ctx.rng_streams
        for a in range(len(streams)):
            name_a, gen_a = streams[a]
            for b in range(a + 1, len(streams)):
                name_b, gen_b = streams[b]
                if gen_a is gen_b:
                    out.append(
                        self.violation(
                            ctx,
                            slot,
                            "two named RNG streams are the same generator "
                            "object; components share (and advance) one "
                            "sequence",
                            streams=(name_a, name_b),
                        )
                    )
                elif gen_a.bit_generator.state == gen_b.bit_generator.state:
                    out.append(
                        self.violation(
                            ctx,
                            slot,
                            "two named RNG streams carry identical "
                            "bit-generator state; stream derivation "
                            "collapsed them onto one sequence",
                            streams=(name_a, name_b),
                        )
                    )
        return out


def default_checkers() -> list[Checker]:
    """Fresh instances of the full checker catalog, in catalog order."""
    return [
        ConservationChecker(),
        MatchingValidityChecker(),
        FifoOrderChecker(),
        StateCrossChecker(),
        RngIsolationChecker(),
    ]
