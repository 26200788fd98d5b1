"""Abstract switch interface shared by all four architectures.

A switch is a discrete-time machine: once per slot the engine calls
:meth:`BaseSwitch.step` with that slot's arrivals (at most one packet per
input port, as in all the paper's traffic models) and receives a
:class:`SlotResult` listing the deliveries that happened in the slot plus
scheduler metadata. Between steps the engine may query queue occupancy for
the paper's queue-size metrics and for instability detection.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, TrafficError
from repro.packet import Delivery, Packet
from repro.utils.validation import check_port_count

__all__ = ["SlotResult", "BaseSwitch"]


@dataclass(slots=True)
class SlotResult:
    """Everything that happened inside the switch during one time slot."""

    slot: int
    deliveries: list[Delivery] = field(default_factory=list)
    #: Scheduling rounds used this slot (0 for non-iterative switches).
    rounds: int = 0
    #: Whether any scheduling request was made (gates the rounds average).
    requests_made: bool = False
    #: New input/output matches per scheduling round (telemetry; empty
    #: for schedulers that do not record per-round counts).
    round_grants: tuple[int, ...] = ()
    #: Grants that left a fanout residue behind (partial multicast
    #: service — the paper's fanout splitting), this slot.
    splits: int = 0
    #: Data cells whose fanout was exhausted and whose buffer space was
    #: reclaimed, this slot.
    reclaimed: int = 0
    #: Packets dropped whole at ingress this slot (down input port,
    #: Bernoulli cell drop, or buffer drop-tail). Dropped packets are
    #: excluded from delay tracking and the conservation audit; the stats
    #: layer counts their cells as losses.
    dropped_packets: tuple[Packet, ...] = ()
    #: Scheduled (input, output) branches corrupted by grant loss this
    #: slot; the address cells stay queued and retry on later slots.
    grants_lost: int = 0

    @property
    def cells_delivered(self) -> int:
        return len(self.deliveries)

    @property
    def cells_dropped(self) -> int:
        """Address cells lost with this slot's ingress-dropped packets."""
        return sum(p.fanout for p in self.dropped_packets)


class BaseSwitch(abc.ABC):
    """Common behaviour: port-count bookkeeping and arrival validation."""

    #: Short identifier used by registries and result labels.
    name: str = "switch"

    #: Whether the architecture guarantees FIFO service order per
    #: (input, output) pair across ALL its internal queues. Class-based
    #: schedulers (ESLIP's multicast priority, the strict-priority QoS
    #: switch) legitimately serve a newer high-class cell before an older
    #: low-class one, so they set this False and the verifier/property
    #: suites skip the cross-class FIFO check for them.
    fifo_per_pair: bool = True

    #: What the per-slot delivery set is allowed to look like, consumed by
    #: the runtime sanitizer's matching-validity checker
    #: (:mod:`repro.sanitize`). ``"crossbar"`` means the deliveries of one
    #: slot form a multicast crossbar matching: at most one cell per
    #: output AND all of one input's deliveries carry the same data cell.
    #: Architectures with internal buffering between the matching and the
    #: output line (CIOQ/CICQ/output-queued) or with several independent
    #: per-slot matchings (ESLIP's multicast+unicast mix, per-class QoS)
    #: declare ``"output"`` — only the one-cell-per-output-line half holds.
    matching_discipline: str = "crossbar"

    #: Which multicast VOQ kernel the scheduler is handed. Only the
    #: multicast VOQ switches hold two (cell objects vs ``SwitchState``),
    #: take a ``backend=`` argument and overwrite this per instance.
    #: Every other switch has one body and reports "object" whatever
    #: name ``make_switch`` was given.
    backend: str = "object"

    def __init__(self, num_ports: int) -> None:
        self.num_ports = check_port_count(num_ports)
        self.current_slot = -1
        self.packets_accepted = 0
        self.cells_delivered = 0
        #: Packets dropped whole at ingress this slot, surfaced by the
        #: template method in the slot's :attr:`SlotResult.dropped_packets`.
        self._dropped_this_slot: list[Packet] = []

    # ------------------------------------------------------------------ #
    # Engine-facing API
    # ------------------------------------------------------------------ #
    def step(self, arrivals: Sequence[Packet | None], slot: int) -> SlotResult:
        """Advance one time slot: accept arrivals, schedule, transmit."""
        if slot != self.current_slot + 1:
            raise ConfigurationError(
                f"non-consecutive slot {slot} after {self.current_slot}"
            )
        if len(arrivals) != self.num_ports:
            raise TrafficError(
                f"{len(arrivals)} arrival lanes for {self.num_ports} ports"
            )
        self.current_slot = slot
        for i, pkt in enumerate(arrivals):
            if pkt is None:
                continue
            if pkt.input_port != i:
                raise TrafficError(
                    f"packet for input {pkt.input_port} in arrival lane {i}"
                )
            if pkt.destinations[-1] >= self.num_ports:
                raise TrafficError(
                    f"destination {pkt.destinations[-1]} out of range for "
                    f"{self.num_ports}-port switch"
                )
            if self._accept(pkt, slot) is not False:
                self.packets_accepted += 1
        result = self._schedule_and_transmit(slot)
        self.cells_delivered += result.cells_delivered
        return result

    # ------------------------------------------------------------------ #
    # Architecture-specific hooks
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _accept(self, packet: Packet, slot: int) -> bool | None:
        """Enqueue one arriving packet (architecture-specific buffering).

        Returning ``False`` signals the packet was dropped at ingress
        (fault injection or a drop-tail buffer): it is not counted in
        ``packets_accepted`` and the switch must surface it in the slot's
        :attr:`SlotResult.dropped_packets`. Any other return value
        (including ``None``) means the packet was accepted.
        """

    def _schedule_and_transmit(self, slot: int) -> SlotResult:
        """Template method for the slot's schedule/transmit sequence.

        The shared boilerplate every decision-shaped architecture used to
        copy-paste — validate the decision, build the
        :class:`SlotResult` from its metadata, configure the fabric,
        transfer, release, surface ingress drops — lives here once.
        Subclasses implement :meth:`_decide` and :meth:`_transfer` (and
        optionally :meth:`_configure_fabric`); architectures whose slot
        sequence is not decision-shaped (output-queued, CIOQ's speedup
        phases) override this method wholesale instead.
        """
        decision, grants_lost = self._decide(slot)
        decision.validate(self.num_ports, self.num_ports)
        result = SlotResult(
            slot=slot,
            rounds=decision.rounds,
            requests_made=decision.requests_made,
            round_grants=tuple(decision.round_grants),
            grants_lost=grants_lost,
        )
        crossbar = getattr(self, "crossbar", None)
        if crossbar is not None:
            self._configure_fabric(decision)
        self._transfer(decision, result, slot)
        if crossbar is not None:
            crossbar.release()
        if self._dropped_this_slot:
            result.dropped_packets = tuple(self._dropped_this_slot)
            self._dropped_this_slot.clear()
        return result

    def _decide(self, slot: int):
        """Produce this slot's ``(ScheduleDecision, grants_lost)`` pair.

        Required by the template method; architectures that override
        :meth:`_schedule_and_transmit` wholesale never call it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} must implement _decide() or override "
            f"_schedule_and_transmit()"
        )

    def _configure_fabric(self, decision) -> None:
        """Set the crossbar from the validated decision's driver vector
        (template hook).

        The template method has already validated the decision (index
        ranges, one driver per output), so the driver vector is built
        directly and handed to
        :meth:`~repro.fabric.crossbar.MulticastCrossbar.configure_drivers`,
        skipping :meth:`~repro.fabric.crossbar.MulticastCrossbar.configure`'s
        per-index re-validation. Accounting and the failed-crosspoint
        constraint are identical.
        """
        driver = [-1] * self.num_ports
        for i, grant in decision.grants.items():
            for j in grant.output_ports:
                driver[j] = i
        self.crossbar.configure_drivers(np.array(driver, dtype=np.int64))

    def _transfer(self, decision, result: SlotResult, slot: int) -> None:
        """Move the granted cells and record deliveries/accounting on
        ``result`` (template hook paired with :meth:`_decide`)."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement _transfer() or override "
            f"_schedule_and_transmit()"
        )

    @abc.abstractmethod
    def queue_sizes(self) -> list[int]:
        """Per-port queue occupancy, per the paper's metric for this
        architecture (see DESIGN.md §5, item 5)."""

    @abc.abstractmethod
    def total_backlog(self) -> int:
        """Total pending (packet, destination) pairs still to deliver."""

    def check_invariants(self) -> None:
        """Optional deep consistency check; overridden where meaningful.

        Called by the engine every ``check_invariants_every`` slots, by
        the exhaustive verifier every slot, and by the runtime
        sanitizer's deep passes (:mod:`repro.sanitize`), which convert a
        raise into a structured violation record instead of a crash.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(N={self.num_ports}, slot={self.current_slot}, "
            f"delivered={self.cells_delivered})"
        )
