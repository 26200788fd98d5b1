"""A multicast-capable crossbar fabric model.

A crossbar connects N inputs to N outputs through an N×N grid of
crosspoints. Its physical constraints are:

* an output port can be driven by at most one input at a time, and
* an input port can drive *any number* of outputs simultaneously — this is
  the "built-in multicast capability" the paper's FIFOMS exploits (§III.B.3:
  "an input port may be connected to more than one output ports
  simultaneously").

The model validates every configuration against these constraints and
keeps per-slot and cumulative transfer accounting, so scheduler bugs that
produce infeasible matchings are caught at the fabric boundary rather than
silently corrupting statistics. It reads the decision's output bitmasks
(docs/kernel.md, "The grant is a mask from round to commit").
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.core.matching import ScheduleDecision
from repro.errors import FabricConflictError
from repro.utils.bitsets import bitmask_to_tuple
from repro.utils.validation import check_index, check_port_count

__all__ = ["CrossbarConfig", "MulticastCrossbar"]


def _driver_of(masks: Mapping[int, int], output_port: int) -> int:
    for i, mask in masks.items():
        if mask >> output_port & 1:
            return i
    return -1


@dataclass(frozen=True, slots=True)
class CrossbarConfig:
    """One slot's crosspoint setting: the output bitmask each input
    drives (the configured decision's ``masks``)."""

    masks: Mapping[int, int]
    num_outputs: int

    @property
    def driver(self) -> tuple[int, ...]:
        """``driver[j]`` = input driving output ``j``, or -1 when idle."""
        return tuple(_driver_of(self.masks, j) for j in range(self.num_outputs))

    @property
    def busy_outputs(self) -> int:
        return sum(m.bit_count() for m in self.masks.values())

    def outputs_of(self, input_port: int) -> tuple[int, ...]:
        """Outputs driven by ``input_port`` under this configuration."""
        return bitmask_to_tuple(self.masks.get(input_port, 0))


class MulticastCrossbar:
    """N×N crossbar with per-slot configuration and transfer accounting."""

    def __init__(self, num_inputs: int, num_outputs: int | None = None) -> None:
        self.num_inputs = check_port_count(num_inputs, "num_inputs")
        self.num_outputs = check_port_count(
            num_inputs if num_outputs is None else num_outputs, "num_outputs"
        )
        self._masks: Mapping[int, int] = {}
        self._configured = False
        self._failed_crosspoints: frozenset[tuple[int, int]] = frozenset()
        #: Per input with a failed crosspoint: bitmask of those outputs.
        self._failed_masks: dict[int, int] = {}
        # Cumulative accounting.
        self.slots_configured = 0
        self.cells_transferred = 0
        self.multicast_transfers = 0  # grants with fanout > 1

    # ------------------------------------------------------------------ #
    def set_crosspoint_faults(self, pairs) -> None:
        """Declare the ``(input, output)`` crosspoints currently failed.

        A failed crosspoint is a physical constraint like the
        one-driver-per-output rule: :meth:`configure` refuses any decision
        that routes through one. The fault injector keeps this mask in
        sync with its per-slot state; pass an empty iterable to clear it.
        """
        failed = frozenset((int(i), int(j)) for i, j in pairs)
        masks: dict[int, int] = {}
        for i, j in failed:
            check_index(i, self.num_inputs, "input_port")
            check_index(j, self.num_outputs, "output_port")
            masks[i] = masks.get(i, 0) | 1 << j
        self._failed_crosspoints = failed
        self._failed_masks = masks

    @property
    def failed_crosspoints(self) -> frozenset[tuple[int, int]]:
        """The currently-declared failed crosspoints (empty when healthy)."""
        return self._failed_crosspoints

    def configure(self, decision: ScheduleDecision) -> CrossbarConfig:
        """Set crosspoints for one slot from a schedule decision.

        Raises :class:`~repro.errors.FabricConflictError` if two inputs
        claim one output — the scheduler must never let this happen — or
        if a grant routes through a crosspoint declared failed via
        :meth:`set_crosspoint_faults` (the fault-aware layers above must
        prune such branches before configuring).
        """
        masks = decision.masks
        num_inputs, num_outputs = self.num_inputs, self.num_outputs
        full = 1 << num_outputs
        failed = self._failed_masks
        seen = 0
        multicast = 0
        for i, mask in masks.items():
            if (
                not 0 <= i < num_inputs
                or not 0 <= mask < full
                or seen & mask
                or (failed and failed.get(i, 0) & mask)
            ):
                # Refuse what a per-output walk meets first: a failed or
                # driven crosspoint (in range) before an out-of-range output.
                check_index(i, num_inputs, "input_port")
                broken = failed.get(i, 0)
                bad = (broken | seen) & mask or mask >> num_outputs << num_outputs
                out = (bad & -bad).bit_length() - 1
                check_index(out, num_outputs, "output_port")
                if broken >> out & 1:
                    raise FabricConflictError(
                        f"crosspoint ({i}, {out}) is failed; the "
                        "decision was not pruned for the current fault state"
                    )
                raise FabricConflictError(
                    f"output {out} claimed by inputs {_driver_of(masks, out)} "
                    f"and {i}"
                )
            seen |= mask
            if mask & (mask - 1):
                multicast += 1
        self._masks = masks
        self._configured = True
        self.slots_configured += 1
        self.cells_transferred += seen.bit_count()
        self.multicast_transfers += multicast
        return CrossbarConfig(masks, num_outputs)

    def release(self) -> None:
        """Tear down the crosspoints at the end of the slot."""
        self._masks = {}
        self._configured = False

    # ------------------------------------------------------------------ #
    @property
    def is_configured(self) -> bool:
        return self._configured

    def driver_of(self, output_port: int) -> int:
        """Input currently driving ``output_port`` (-1 if idle)."""
        check_index(output_port, self.num_outputs, "output_port")
        return _driver_of(self._masks, output_port)

    def fanout_of(self, input_port: int) -> int:
        """How many outputs ``input_port`` currently drives."""
        check_index(input_port, self.num_inputs, "input_port")
        return self._masks.get(input_port, 0).bit_count()

    @property
    def utilization(self) -> float:
        """Lifetime fraction of output-slot capacity actually used."""
        total = self.slots_configured * self.num_outputs
        return self.cells_transferred / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MulticastCrossbar({self.num_inputs}x{self.num_outputs}, "
            f"slots={self.slots_configured}, cells={self.cells_transferred})"
        )
