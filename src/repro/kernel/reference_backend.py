"""The ``object`` kernel: a FIFOMS or greedy-mcast scheduler's settings run on
:class:`~repro.verify.reference.ReferenceFIFOMS`, the equivalence grid's model."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.fifoms import TieBreak
from repro.core.matching import ScheduleDecision
from repro.kernel.base import KernelBackend, register_backend
from repro.schedulers.greedy_mcast import GreedyMcastScheduler
from repro.utils.bitsets import iter_bits
from repro.verify.reference import ReferenceFIFOMS

__all__ = ["ReferenceBackend"]


class ReferenceBackend(KernelBackend):
    """The reference model behind the kernel interface."""

    name = "object"

    def __init__(self, num_ports: int, **buffer: Any) -> None:
        self.model = ReferenceFIFOMS(num_ports, **buffer)
        self.pointers = [0] * num_ports  # round-robin tie-break, per output
        self.start = 0  # greedy-mcast's first input this slot
        self.scheduler: Any = None  # the scheduler being run this slot

    def admit(self, packet: Any, slot: int) -> bool:
        return self.model.preprocess(packet, slot)

    def _pick(self, winners: list[int], j: int) -> int:
        if self.scheduler.tie_break is TieBreak.LOWEST_INPUT:
            return min(winners)
        if self.scheduler.tie_break is TieBreak.RANDOM:
            return winners[int(self.scheduler._rng.integers(len(winners)))]
        chosen = next((i for i in winners if i >= self.pointers[j]), winners[0])
        self.pointers[j] = (chosen + 1) % len(self.pointers)
        return chosen

    def _order(self, offers: list[Any]) -> list[Any]:
        if self.scheduler.tie_break is not TieBreak.RANDOM:
            return offers
        return [offers[int(k)] for k in self.scheduler._rng.permutation(len(offers))]

    def schedule(self, scheduler: Any, *, input_free: list[bool] | None = None,
                 output_free: list[bool] | None = None) -> ScheduleDecision:
        n, model, decision = self.model.num_ports, self.model, ScheduleDecision()
        self.scheduler = scheduler
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

    def commit(self, decision: ScheduleDecision, result: Any, slot: int) -> None:
        for i, mask in self.driver_row(decision):
            packet, released = self.model.transmit(i, list(iter_bits(mask)))
            result.rows.append((packet, mask))
            result.cells_delivered += mask.bit_count()
            result.reclaimed += released
            result.splits += not released

    def harvest_slot_stats(self) -> dict[str, object]:
        cells = [cell for live in self.model.buffer for cell in live]
        queues = [q for row in self.model.voqs for q in row]
        heads = [q[0].time_stamp for q in queues if q]
        return {"live_cells": len(cells), "voq_peak": max(map(len, queues)),
                "residue_cells": sum(c.fanout_counter < c.packet.fanout for c in cells),
                "oldest_hol_ts": min(heads, default=None)}

    def queue_sizes(self) -> list[int]:
        return [len(live) for live in self.model.buffer]

    def total_backlog(self) -> int:
        return sum(len(q) for row in self.model.voqs for q in row)

    def check_invariants(self) -> None:
        self.model.check()

    def state_arrays(self) -> dict[str, object]:
        rows = self.model.voqs
        hol = [[q[0].time_stamp if q else np.inf for q in row] for row in rows]
        fanouts = [[c.fanout_counter for c in live] for live in self.model.buffer]
        return {"hol_ts": np.array(hol, np.float64),
                "occupancy": np.array([list(map(len, r)) for r in rows], np.int64),
                "live": np.array(self.queue_sizes(), np.int64),
                "fanout_counters": [np.array(f, np.int64) for f in fanouts]}


register_backend("object", ReferenceBackend)
