"""The :class:`Packet` and :class:`Delivery` value objects.

A *packet* is the unit of arrival: it enters the switch at one input port
at one time slot and must be delivered to a set of output ports (its
*fanout set*). A *delivery* records one (packet, output) service event.

These are deliberately tiny immutable records — all mutable switching
state (fanout counters, queue positions) lives in the switch models, not
on the packet itself, so a single packet object can be shared safely
between the traffic generator, the switch and the statistics collectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import lt

from repro.errors import TrafficError
from repro.utils.bitsets import bitmask_from_iterable

__all__ = ["Packet", "Delivery"]

_packet_ids = itertools.count()


@dataclass(frozen=True, slots=True)
class Packet:
    """A fixed-length (multicast) packet.

    Attributes
    ----------
    input_port:
        Index of the input port the packet arrived on.
    destinations:
        Sorted tuple of distinct output-port indices (the fanout set).
        Never empty — a packet with nowhere to go is a traffic-model bug.
    arrival_slot:
        The time slot in which the packet entered the switch. Doubles as
        the FIFOMS time stamp of all the packet's address cells.
    packet_id:
        A process-unique identifier, assigned automatically. Used only for
        bookkeeping (delay attribution, tests); algorithms never key on it.
    priority:
        QoS class, 0 = highest. Ignored by the paper's algorithms; used
        by the :mod:`repro.qos` strict-priority extension.
    """

    input_port: int
    destinations: tuple[int, ...]
    arrival_slot: int
    packet_id: int = field(default_factory=_packet_ids.__next__)
    priority: int = 0

    def __post_init__(self) -> None:
        dests = self.destinations
        if not dests:
            raise TrafficError("a packet must have at least one destination")
        # Generators emit strictly increasing tuples of int: nothing to do.
        if not (
            type(dests) is tuple
            and set(map(type, dests)) == {int}
            and all(map(lt, dests, dests[1:]))
        ):
            dests = tuple(sorted(set(int(d) for d in dests)))
            object.__setattr__(self, "destinations", dests)
        if dests[0] < 0:
            raise TrafficError(f"negative destination in {dests}")
        if self.input_port < 0:
            raise TrafficError(f"negative input port {self.input_port}")
        if self.arrival_slot < 0:
            raise TrafficError(f"negative arrival slot {self.arrival_slot}")
        if self.priority < 0:
            raise TrafficError(f"negative priority {self.priority}")

    @property
    def fanout(self) -> int:
        """Number of destination output ports."""
        return len(self.destinations)

    @property
    def is_multicast(self) -> bool:
        """True when the packet has more than one destination."""
        return len(self.destinations) > 1

    @property
    def destination_mask(self) -> int:
        """The fanout set as an integer bitmask (bit j <=> output j)."""
        return bitmask_from_iterable(self.destinations)


@dataclass(frozen=True, slots=True)
class Delivery:
    """One (packet, output port) service event.

    ``delay`` follows the convention documented in DESIGN.md §5: a packet
    served in its arrival slot has delay 1.
    """

    packet: Packet
    output_port: int
    service_slot: int

    @property
    def delay(self) -> int:
        """Slots spent in the switch for this destination (>= 1)."""
        return self.service_slot - self.packet.arrival_slot + 1
