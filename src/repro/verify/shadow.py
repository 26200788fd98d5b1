"""The reference FIFOMS in lockstep with production, inside one run.

:class:`ReferenceLane` is the one code that drives the reference model
(:mod:`repro.verify.reference`) with a production scheduler's settings,
for the opt-in :class:`ReferenceShadow` checker and for the ``"object"``
kernel (:class:`~repro.kernel.reference_backend.ReferenceBackend`).
"""

from __future__ import annotations

import copy
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.fifoms import FIFOMSScheduler, TieBreak
from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError, ReproError
from repro.sanitize import Checker, RunContext, Violation, default_checkers
from repro.schedulers.greedy_mcast import GreedyMcastScheduler
from repro.utils.bitsets import iter_bits

if TYPE_CHECKING:
    from repro.packet import Packet
    from repro.switch.base import SlotResult

__all__ = ["ReferenceLane", "ReferenceShadow", "checkers_for"]


class ReferenceLane:
    """One reference model run with a FIFOMS scheduler's tie-break, round
    cap and fanout mode, or greedy-mcast's pointer walk. Round-robin and
    greedy pointers are the lane's own; RANDOM draws from the generator
    :meth:`decide` is handed."""

    def __init__(self, model: Any) -> None:
        self.model = model
        self.pointers = [0] * model.num_ports  # round-robin tie-break, per output
        self.start = 0  # greedy-mcast's first input this slot
        self.tie_break, self.rng = None, None  # the scheduler's, per decide()

    def decide(self, scheduler: Any, rng: Any, input_free: list[bool] | None = None,
               output_free: list[bool] | None = None) -> ScheduleDecision:
        """One slot of ``scheduler``'s algorithm; marks granted ports taken."""
        n, model, decision = self.model.num_ports, self.model, ScheduleDecision()
        self.tie_break, self.rng = getattr(scheduler, "tie_break", None), rng
        if isinstance(scheduler, GreedyMcastScheduler):
            grants, self.start = model.greedy(self.start), (self.start + 1) % n
            decision.rounds, decision.requests_made = int(bool(grants)), bool(grants)
        else:
            inputs, outputs = input_free or [True] * n, output_free or [True] * n
            grants, decision.round_grants, decision.requests_made = (
                model.fifoms(inputs, outputs, self._pick, scheduler.max_iterations)
                if scheduler.fanout_splitting
                else model.no_split(inputs, outputs, self._order))
            decision.rounds = len(decision.round_grants)
        for i, granted in grants.items():
            decision.add(i, granted)
        return decision

    def _pick(self, winners: list[int], j: int) -> int:
        if self.tie_break is TieBreak.LOWEST_INPUT:
            return min(winners)
        if self.tie_break is TieBreak.RANDOM:
            return winners[int(self.rng.integers(len(winners)))]
        chosen = next((i for i in winners if i >= self.pointers[j]), winners[0])
        self.pointers[j] = (chosen + 1) % len(self.pointers)
        return chosen

    def _order(self, offers: list[Any]) -> list[Any]:
        if self.tie_break is not TieBreak.RANDOM:
            return offers
        return [offers[int(k)] for k in self.rng.permutation(len(offers))]


def harvest(model: Any) -> dict[str, object]:
    """``harvest_slot_stats()`` over the model's cells and VOQs."""
    cells = [cell for live in model.buffer for cell in live]
    queues = [q for row in model.voqs for q in row]
    heads = [q[0].time_stamp for q in queues if q]
    return {"live_cells": len(cells), "voq_peak": max(map(len, queues)),
            "residue_cells": sum(c.fanout_counter < c.packet.fanout for c in cells),
            "oldest_hol_ts": min(heads, default=None)}


def queue_sizes(model: Any) -> list[int]:
    """Live data cells per input."""
    return [len(cells) for cells in model.buffer]


def total_backlog(model: Any) -> int:
    """Queued address cells."""
    return sum(len(q) for row in model.voqs for q in row)


def state_arrays(model: Any) -> dict[str, object]:
    """The kernel seam's struct-of-arrays snapshot of one model."""
    hol = [[q[0].time_stamp if q else np.inf for q in row] for row in model.voqs]
    return {"hol_ts": np.array(hol, np.float64),
            "occupancy": np.array([list(map(len, r)) for r in model.voqs], np.int64),
            "live": np.array(queue_sizes(model), np.int64),
            "fanout_counters": [np.array([c.fanout_counter for c in live], np.int64)
                                for live in model.buffer]}


def _plain(value: Any) -> Any:
    """A snapshot as nested lists, comparable with ``==``."""
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return np.asarray(value).tolist()


def _scheduler(switch: Any) -> Any:
    """The scheduler a reference lane can stand beside, or None."""
    from repro.switch.voq_multicast import MulticastVOQSwitch

    if isinstance(switch, MulticastVOQSwitch) and isinstance(
            switch.scheduler, (FIFOMSScheduler, GreedyMcastScheduler)):
        return switch.scheduler
    return None


class ReferenceShadow(Checker):
    """Production held to the reference, slot by slot, in one run: one
    lane, never in :func:`~repro.sanitize.default_checkers`, the
    reference imported at :meth:`attach`. Per slot, production's rows
    must be the lane's decision (fault-pruned) less exactly
    ``grants_lost`` branches, and its drops, rounds, splits, queue sizes
    and kernel-seam counters the reference's; deep passes compare
    ``state_arrays()`` and ``total_backlog()`` (docs/sanitizers.md)."""

    name = "reference_shadow"

    def attach(self, ctx: RunContext) -> list[Violation]:
        from repro.verify.reference import ReferenceFIFOMS

        switch = ctx.switch
        scheduler = _scheduler(switch)
        if scheduler is None or switch.current_slot != -1:
            raise ConfigurationError(
                "ReferenceShadow stands beside a fifoms or greedy-mcast "
                f"switch before its first slot, not {switch!r}")
        self.scheduler = scheduler
        self.rng = copy.deepcopy(getattr(scheduler, "_rng", None))
        self.model = ReferenceFIFOMS(
            switch.num_ports,
            buffer_capacity=getattr(switch, "buffer_capacity", None),
            buffer_overflow=getattr(switch, "buffer_overflow", "raise"))
        self.lane = ReferenceLane(self.model)
        self.fault_drops = ctx.injector.packets_dropped if ctx.injector else 0
        return []

    def on_slot(self, ctx: RunContext, slot: int,
                arrivals: "Sequence[Packet | None]",
                result: "SlotResult") -> list[Violation]:
        out = self._admit(ctx, slot, arrivals, result)
        expected, rounds = self._decide(ctx.injector)
        out += self._rows(ctx, slot, expected, result)
        splits = reclaimed = 0
        for packet, mask in result.rows:
            try:
                served, released = self.model.transmit(
                    packet.input_port, list(iter_bits(mask)))
            except (ReproError, IndexError):
                served = released = None
            if served is not packet:
                out.append(self.violation(
                    ctx, slot, "production served a data cell the reference does "
                    "not hold at those VOQ heads", input=packet.input_port,
                    production_mask=mask))
                continue
            reclaimed += released
            splits += not released
        for what, ref, prod in (
                ("rounds, per-round grants, requests", rounds,
                 (result.rounds, tuple(result.round_grants), result.requests_made)),
                ("splits, reclaimed", (splits, reclaimed),
                 (result.splits, result.reclaimed)),
                ("queue_sizes()", queue_sizes(self.model), ctx.switch.queue_sizes()),
                ("harvest_slot_stats()", harvest(self.model),
                 ctx.switch.harvest_slot_stats())):
            if ref != prod:
                out.append(self.violation(ctx, slot, f"{what} differ from the "
                                          "reference's", reference=ref, production=prod))
        return out

    def _admit(self, ctx: RunContext, slot: int,
               arrivals: "Sequence[Packet | None]",
               result: "SlotResult") -> list[Violation]:
        """Table 1 for the arrivals production kept. A drop at a full buffer
        may be either loss; one at a buffer with room is the injector's."""
        out, dropped, seen, refused = [], {id(p) for p in result.dropped_packets}, 0, 0
        for packet in filter(None, arrivals):
            if id(packet) in dropped:
                seen += 1
                refused += self.model.full(packet.input_port)
            elif not self.model.preprocess(packet, slot):
                out.append(self.violation(ctx, slot, "production admitted a packet "
                                          "the reference's full buffer refuses",
                                          input=packet.input_port))
        faults = ctx.injector.packets_dropped - self.fault_drops if ctx.injector else 0
        self.fault_drops, lost = self.fault_drops + faults, len(dropped)
        if seen != lost or not lost - refused <= faults <= lost:
            out.append(self.violation(
                ctx, slot, "dropped packets disagree with the reference's buffer "
                "refusals and the injector's drops", dropped=lost,
                dropped_arrivals=seen, refused=refused, injector_drops=faults))
        return out

    def _decide(self, injector: Any) -> tuple[dict[int, int], tuple]:
        """Table 2 on the lane, fault-pruned: masks, (rounds, grants, requests)."""
        state = injector.current if injector is not None else None
        free: tuple = (None, None)
        if state is not None and state.has_port_outage and getattr(
                self.scheduler, "supports_port_masks", False):
            free = tuple(up and list(up) for up in (state.input_up, state.output_up))
        decision = self.lane.decide(self.scheduler, self.rng, *free)
        masks = decision.masks
        if state is not None and state.degraded:
            for i in list(masks):
                keep = 0 if state.input_is_down(i) else masks[i]
                for j in iter_bits(keep):
                    if state.output_is_down(j) or (i, j) in state.failed_crosspoints:
                        keep ^= 1 << j
                masks[i] = keep
        return masks, (decision.rounds, tuple(decision.round_grants),
                       decision.requests_made)

    def _rows(self, ctx: RunContext, slot: int, expected: dict[int, int],
              result: "SlotResult") -> list[Violation]:
        """Production's rows are the decision less ``grants_lost`` branches."""
        produced = {p.input_port: mask for p, mask in result.rows}
        diffs = [(i, expected.get(i, 0), produced.get(i, 0))
                 for i in sorted(expected.keys() | produced.keys())
                 if expected.get(i, 0) != produced.get(i, 0)]
        extra = [d for d in diffs if d[2] & ~d[1]]
        missing = sum((ref & ~prod).bit_count() for _, ref, prod in diffs)
        if not extra and missing == result.grants_lost:
            return []
        i, ref, prod = (extra or diffs or [(None, 0, 0)])[0]  # None: lost grants only
        differ = ref ^ prod
        return [self.violation(
            ctx, slot, "production's grant differs from the reference's decision",
            input=i, output=(differ & -differ).bit_length() - 1 if differ else None,
            reference_mask=ref, production_mask=prod, grants_lost=result.grants_lost)]

    def deep_check(self, ctx: RunContext, slot: int) -> list[Violation]:
        ref, prod, out = state_arrays(self.model), ctx.switch.state_arrays(), []
        differ = [k for k in sorted(ref.keys() | prod.keys())
                  if _plain(ref.get(k)) != _plain(prod.get(k))]
        if differ:
            out.append(self.violation(ctx, slot, "state_arrays() differ from the "
                                      "reference's", keys=tuple(differ)))
        backlog = (total_backlog(self.model), ctx.switch.total_backlog())
        if backlog[0] != backlog[1]:
            out.append(self.violation(ctx, slot, "total_backlog() differs from the "
                                      "reference's", reference=backlog[0],
                                      production=backlog[1]))
        return out


def checkers_for(switch: Any) -> list[Checker]:
    """:func:`~repro.sanitize.default_checkers`, joined by a
    :class:`ReferenceShadow` when the reference models ``switch``
    (fifoms, greedy-mcast)."""
    checkers = default_checkers()
    if _scheduler(switch) is not None:
        checkers.append(ReferenceShadow())
    return checkers
