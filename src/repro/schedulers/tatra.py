"""TATRA — Tetris-based multicast scheduling on the single-input-queued
switch (Ahuja, Prabhakar, McKeown; the paper's reference [6]).

TATRA views scheduling as a Tetris game played in a *departure-date box*
with one column per output port:

* Each HOL multicast cell is a "piece" occupying one square in each column
  of its fanout set.
* Each time slot, the **bottom row departs**: every non-empty column's
  bottom square is served (output j receives from the input whose square
  sits at the bottom of column j), then all squares fall by one.
* When an input's HOL position becomes occupied by a cell that is not yet
  in the box (a *fresh* cell — either a new arrival to an empty queue or
  the successor of a fully-departed cell), the piece is dropped in: one
  square lands at the lowest free position of each fanout column.

Squares of a piece may land at different heights (vertical distortion) —
that *is* fanout splitting — and the piece's departure date is its highest
square. The next cell of that input stays invisible until then: the HOL
blocking that limits this architecture.

Placement policy (DESIGN.md §5, substitution 1): the FIFOMS paper does not
restate TATRA's placement rule, so we place fresh pieces in ascending
order of *tentative departure date* (max over fanout columns of
column-height + 1 at placement time), breaking ties by arrival slot then
input index. Earlier-departing pieces placed first keep the box flat and
concentrate residue on few inputs, which is TATRA's stated objective.
"""

from __future__ import annotations

from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError, SchedulingError
from repro.schedulers.base import SIQHolView
from repro.utils.bitsets import iter_bits

__all__ = ["TATRAScheduler"]


class TATRAScheduler:
    """Stateful Tetris departure-date box over SIQ HOL cells."""

    name = "tatra"

    def __init__(self, num_ports: int) -> None:
        if num_ports < 1:
            raise ConfigurationError(f"num_ports must be >= 1, got {num_ports}")
        self.num_ports = num_ports
        # columns[j] = bottom-up list of input indices with a square there.
        self.columns: list[list[int]] = [[] for _ in range(num_ports)]
        # packet_id currently in the box, per input (-1 = none).
        self._in_box: list[int] = [-1] * num_ports

    # ------------------------------------------------------------------ #
    def schedule(self, view: SIQHolView) -> ScheduleDecision:
        """Drop fresh pieces into the box, then serve the bottom row."""
        decision = ScheduleDecision()
        columns = self.columns
        in_box = self._in_box
        inputs = view.inputs
        residue_bits = view.residue_bits
        packet_ids = view.packet_ids

        # 1. Drop fresh pieces into the box.
        fresh = [k for k, i in enumerate(inputs) if in_box[i] != packet_ids[k]]
        if fresh:
            arrivals = view.arrivals
            fresh.sort(
                key=lambda k: (
                    max(len(columns[j]) + 1 for j in iter_bits(residue_bits[k])),
                    arrivals[k],
                    inputs[k],
                )
            )
            for k in fresh:
                i = inputs[k]
                for j in iter_bits(residue_bits[k]):
                    columns[j].append(i)
                in_box[i] = packet_ids[k]

        # 2. Serve the bottom row.
        residue_of = dict(zip(inputs, residue_bits))
        grants: dict[int, int] = {}  # input -> bitmask of departing squares
        for j, col in enumerate(columns):
            if not col:
                continue
            i = col.pop(0)  # the bottom square departs; the column falls
            grants[i] = grants.get(i, 0) | 1 << j
            if not (residue_of.get(i, 0) >> j) & 1:
                raise SchedulingError(
                    f"TATRA box out of sync: column {j} bottom square points "
                    f"at input {i} which has no pending cell for it"
                )

        if inputs:
            decision.requests_made = True
        masks = decision.masks
        for i in sorted(grants):
            masks[i] = grants[i]
            # If this serves the piece's last squares, the input's box slot
            # frees up so the next HOL cell registers as fresh.
            if not any(i in col for col in columns):
                in_box[i] = -1
        decision.rounds = 1 if grants else 0
        return decision

    # ------------------------------------------------------------------ #
    def box_heights(self) -> list[int]:
        """Current column heights (diagnostics / tests)."""
        return [len(col) for col in self.columns]

    def departure_date(self, input_port: int) -> int | None:
        """Slots until this input's piece fully departs (None if absent)."""
        heights = [
            idx + 1
            for col in self.columns
            for idx, i in enumerate(col)
            if i == input_port
        ]
        return max(heights) if heights else None

    def reset(self) -> None:
        """Empty the departure-date box."""
        self.columns = [[] for _ in range(self.num_ports)]
        self._in_box = [-1] * self.num_ports

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TATRAScheduler(N={self.num_ports}, heights={self.box_heights()})"
