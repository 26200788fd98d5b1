"""Schedule-decision value objects shared by all schedulers.

A scheduling pass over one time slot produces a :class:`ScheduleDecision`:
for each matched input port, a bitmask (bit ``j`` = output ``j``) of the
output ports the input will drive in this slot — all receive the *same*
data cell, and a unicast grant has one bit. Validation, the crossbar and
every commit read the mask (docs/kernel.md, "The grant is a mask from
round to commit"); :class:`GrantSet` is its tuple form, built on read.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.errors import SchedulingError
from repro.utils.bitsets import bitmask_to_tuple

__all__ = ["GrantSet", "ScheduleDecision"]


@dataclass(frozen=True, slots=True)
class GrantSet:
    """Outputs granted to one input in one slot (one data cell's fanout)."""

    input_port: int
    output_ports: tuple[int, ...]

    def __post_init__(self) -> None:
        outs = tuple(sorted(set(self.output_ports)))
        if not outs:
            raise SchedulingError(f"empty grant set for input {self.input_port}")
        if outs != tuple(self.output_ports):
            object.__setattr__(self, "output_ports", outs)

    @property
    def fanout(self) -> int:
        return len(self.output_ports)


@dataclass(slots=True)
class ScheduleDecision:
    """All grants of one time slot, plus scheduling metadata.

    Attributes
    ----------
    masks:
        One output bitmask per matched input, keyed by input index, in
        the order the scheduler granted them (ascending input for every
        built-in scheduler but the pointer-ordered greedy pass, the
        timestamp-ordered no-splitting FIFOMS pass and ESLIP's
        multicast-then-unicast merge).
        Commit emits deliveries in this order.
    rounds:
        Number of productive iterations the scheduler ran (see DESIGN.md
        §5 for the counting convention). 0 when nothing was schedulable.
    requests_made:
        True when at least one request was issued this slot; slots with no
        requests are excluded from the convergence-rounds average.
    round_grants:
        New input/output matches made in each productive round, in round
        order (telemetry; see ``repro.schedulers.base.note_round``). Its
        length equals ``rounds`` for schedulers that record it, and it is
        empty for schedulers that don't.
    """

    masks: dict[int, int] = field(default_factory=dict)
    rounds: int = 0
    requests_made: bool = False
    round_grants: list[int] = field(default_factory=list)

    def add(self, input_port: int, output_ports: Iterable[int]) -> None:
        """Record one input's granted outputs (each input at most once)."""
        if input_port in self.masks:
            raise SchedulingError(f"input {input_port} granted twice in one slot")
        mask = 0
        for j in output_ports:
            if j < 0:
                raise SchedulingError(f"output index {j} out of range")
            mask |= 1 << int(j)
        if not mask:
            raise SchedulingError(f"empty grant set for input {input_port}")
        self.masks[input_port] = mask

    @property
    def grants(self) -> Mapping[int, GrantSet]:
        """Read-only ``{input: GrantSet}`` view of :attr:`masks`, built
        on every read (tests and custom code; nothing on the slot path)."""
        return MappingProxyType(
            {i: GrantSet(i, bitmask_to_tuple(m)) for i, m in self.masks.items()}
        )

    def validate(self, num_inputs: int, num_outputs: int) -> None:
        """Check crossbar feasibility: each output driven by <= 1 input.
        A refusal names what a per-output walk would meet first: a clash
        (always below ``num_outputs``) before an out-of-range output."""
        full = 1 << num_outputs
        seen = 0
        for inp, mask in self.masks.items():
            if not 0 <= inp < num_inputs:
                raise SchedulingError(f"input index {inp} out of range")
            if seen & mask or not 0 < mask < full:
                if mask <= 0:
                    raise SchedulingError(f"empty grant set for input {inp}")
                bad = seen & mask or mask >> num_outputs << num_outputs
                out = (bad & -bad).bit_length() - 1
                if out >= num_outputs:
                    raise SchedulingError(f"output index {out} out of range")
                first = next(i for i, m in self.masks.items() if m >> out & 1)
                raise SchedulingError(
                    f"output {out} granted to inputs {first} and {inp} in "
                    f"the same slot"
                )
            seen |= mask

    @property
    def matched_outputs(self) -> int:
        """Total output ports served this slot (switch throughput in cells)."""
        return sum(m.bit_count() for m in self.masks.values())

    def __bool__(self) -> bool:
        return bool(self.masks)

    def __len__(self) -> int:
        return len(self.masks)
