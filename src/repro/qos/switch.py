"""The strict-priority multicast VOQ switch.

Composition of the paper's building blocks: ``num_classes`` full
:class:`~repro.core.voq.MulticastVOQInputPort` rows (class c of input i
holds the class-c address cells of input i), one FIFOMS scheduler per
class, and a shared crossbar. Per slot:

1. arrivals are preprocessed into their class's port row;
2. class 0 schedules with all ports free; each lower class schedules over
   the ports the classes above left unreserved (the ``input_free`` /
   ``output_free`` masks of :meth:`FIFOMSScheduler.schedule`);
3. all grants transmit together — feasibility across classes is
   guaranteed because the masks made the passes disjoint, and the
   combined decision is still validated against the crossbar.

Strict priority is work-conserving across classes: a lower class uses any
port the higher classes left idle in the same slot.
"""

from __future__ import annotations

from repro.core.fifoms import FIFOMSScheduler, TieBreak
from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError, TrafficError
from repro.fabric.crossbar import MulticastCrossbar
from repro.kernel.base import make_backend
from repro.packet import Packet
from repro.schedulers.base import resolve_backend
from repro.switch.base import BaseSwitch, SlotResult

__all__ = ["PriorityMulticastVOQSwitch"]


class PriorityMulticastVOQSwitch(BaseSwitch):
    """N×N multicast VOQ switch with strict service classes.

    ``backend`` names the kernel backend every class lane is built on
    (``"object"`` or ``"vectorized"``); left unset (``None``, the
    default) it is the per-class FIFOMS scheduler's preferred declared
    body, ``"vectorized"``. ``switch.backend`` reports what was built.
    """

    name = "mcast-voq-prio"
    #: Strict priority serves a newer premium cell before an older
    #: best-effort cell: FIFO holds within a class, not across classes.
    fifo_per_pair = False
    #: Each class runs its own matching over the leftover ports, so one
    #: input may serve distinct cells from different classes in a slot.
    matching_discipline = "output"

    def __init__(
        self,
        num_ports: int,
        num_classes: int = 2,
        *,
        tie_break: TieBreak = TieBreak.RANDOM,
        rng=None,
        backend: str | None = None,
    ) -> None:
        super().__init__(num_ports)
        if not 1 <= num_classes <= 8:
            raise ConfigurationError(
                f"num_classes must be in [1, 8], got {num_classes}"
            )
        self.num_classes = num_classes
        self.schedulers = [
            FIFOMSScheduler(num_ports, tie_break=tie_break, rng=rng)
            for _ in range(num_classes)
        ]
        self.backend = resolve_backend(self.schedulers[0], backend)
        # One kernel backend per class: class c's priority lane is a full
        # VOQ state (object port row or SoA SwitchState) of its own.
        self._backends = [
            make_backend(self.backend, num_ports) for _ in range(num_classes)
        ]
        self.crossbar = MulticastCrossbar(num_ports)
        self.deliveries_per_class = [0] * num_classes
        # Per-class decisions staged by _decide() for _transfer().
        self._pending: list[ScheduleDecision] | None = None

    @property
    def class_ports(self):
        """[class][input] port objects (reference semantics only).

        The vectorized backend has no per-cell port objects; use
        :meth:`queue_sizes_by_class` or the per-class backends'
        ``state_arrays()`` for a backend-agnostic view.
        """
        return [b.ports for b in self._backends]

    # ------------------------------------------------------------------ #
    def _accept(self, packet: Packet, slot: int) -> None:
        if packet.priority >= self.num_classes:
            raise TrafficError(
                f"packet priority {packet.priority} >= {self.num_classes} classes"
            )
        self._backends[packet.priority].admit(packet, slot)

    def _decide(self, slot: int) -> tuple[ScheduleDecision, int]:
        """One FIFOMS pass per class, strictly high to low, carrying the
        port reservations down; the per-class decisions are staged for
        :meth:`_transfer` (each class drains its own port set)."""
        n = self.num_ports
        input_free = [True] * n
        output_free = [True] * n
        combined = ScheduleDecision()
        per_class: list[ScheduleDecision] = []
        total_rounds = 0
        for cls in range(self.num_classes):
            decision = self._backends[cls].schedule(
                self.schedulers[cls],
                input_free=input_free,
                output_free=output_free,
            )
            per_class.append(decision)
            total_rounds += decision.rounds
            if decision.requests_made:
                combined.requests_made = True
            for i, grant in decision.grants.items():
                combined.add(i, grant.output_ports)
        combined.rounds = total_rounds
        self._pending = per_class
        return combined, 0

    def _transfer(
        self, decision: ScheduleDecision, result: SlotResult, slot: int
    ) -> None:
        per_class = self._pending
        self._pending = None
        for cls, class_decision in enumerate(per_class):
            before = len(result.deliveries)
            self._backends[cls].commit(class_decision, result, slot)
            self.deliveries_per_class[cls] += len(result.deliveries) - before

    # ------------------------------------------------------------------ #
    def queue_sizes(self) -> list[int]:
        """Live data cells per input, summed over classes."""
        per_class = [b.queue_sizes() for b in self._backends]
        return [
            sum(sizes[i] for sizes in per_class)
            for i in range(self.num_ports)
        ]

    def queue_sizes_by_class(self) -> list[list[int]]:
        """[class][input] live data cells."""
        return [b.queue_sizes() for b in self._backends]

    def harvest_slot_stats(self) -> dict[str, object]:
        """Kernel-seam counters, aggregated over the class lanes.

        Sums live/residue cells, takes the worst per-class VOQ peak and
        the oldest HOL timestamp across classes — the same keys both
        kernel backends produce, so the ``kernel.*`` telemetry series and
        the metrics-identical equivalence level cover this pairing too.
        """
        live = 0
        residue = 0
        voq_peak = 0
        oldest: object = None
        for b in self._backends:
            stats = b.harvest_slot_stats()
            live += stats["live_cells"]
            residue += stats["residue_cells"]
            voq_peak = max(voq_peak, stats["voq_peak"])
            hol = stats["oldest_hol_ts"]
            if hol is not None and (oldest is None or hol < oldest):
                oldest = hol
        return {
            "live_cells": live,
            "residue_cells": residue,
            "voq_peak": voq_peak,
            "oldest_hol_ts": oldest,
        }

    def state_arrays(self) -> dict[str, object]:
        """Per-class struct-of-arrays snapshots (both backends)."""
        return {
            f"class{c}": b.state_arrays() for c, b in enumerate(self._backends)
        }

    def total_backlog(self) -> int:
        return sum(b.total_backlog() for b in self._backends)

    def check_invariants(self) -> None:
        for b in self._backends:
            b.check_invariants()
