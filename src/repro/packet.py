"""The :class:`Packet` and :class:`Delivery` value objects.

A *packet* is the unit of arrival: it enters the switch at one input port
at one time slot and must be delivered to a set of output ports (its
*fanout set*). A *delivery* is one (packet, output) service event, as
read off :attr:`SlotResult.deliveries <repro.switch.base.SlotResult.deliveries>`,
the per-copy view of a slot's ``(packet, output_mask)`` grant rows.

These are deliberately tiny immutable records — all mutable switching
state (fanout counters, queue positions) lives in the switch models, not
on the packet itself, so a single packet object can be shared safely
between the traffic generator, the switch and the statistics collectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import lt
from typing import NamedTuple

from repro.errors import TrafficError
from repro.utils.bitsets import bitmask_from_iterable

__all__ = ["Packet", "Delivery"]

_next_packet_id = itertools.count().__next__


@dataclass(frozen=True, slots=True, init=False)
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
    """

    input_port: int
    destinations: tuple[int, ...]
    arrival_slot: int
    packet_id: int = field(default_factory=_next_packet_id)

    def __init__(
        self,
        input_port: int,
        destinations: tuple[int, ...],
        arrival_slot: int,
        packet_id: int | None = None,
    ) -> None:
        # Checked once, here; stored through the slot descriptors below
        # because the frozen ``__setattr__`` refuses plain assignment.
        if packet_id is None:
            packet_id = _next_packet_id()
        dests = destinations
        if not dests:
            raise TrafficError("a packet must have at least one destination")
        # Generators emit a 1-tuple of int or a strictly increasing tuple
        # of int: nothing to do.
        if not (
            type(dests) is tuple
            and (
                type(dests[0]) is int
                if len(dests) == 1
                else set(map(type, dests)) == {int} and all(map(lt, dests, dests[1:]))
            )
        ):
            dests = tuple(sorted(set(int(d) for d in dests)))
        if dests[0] < 0:
            raise TrafficError(f"negative destination in {dests}")
        if input_port < 0:
            raise TrafficError(f"negative input port {input_port}")
        if arrival_slot < 0:
            raise TrafficError(f"negative arrival slot {arrival_slot}")
        _set_input_port(self, input_port)
        _set_destinations(self, dests)
        _set_arrival_slot(self, arrival_slot)
        _set_packet_id(self, packet_id)

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


_set_input_port = Packet.input_port.__set__  # type: ignore[attr-defined]
_set_destinations = Packet.destinations.__set__  # type: ignore[attr-defined]
_set_arrival_slot = Packet.arrival_slot.__set__  # type: ignore[attr-defined]
_set_packet_id = Packet.packet_id.__set__  # type: ignore[attr-defined]


class Delivery(NamedTuple):
    """One (packet, output port) service event. No switch builds one:
    readers get them from the per-copy ``SlotResult.deliveries`` view.

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
