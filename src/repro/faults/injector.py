"""The fault injector: composes fault models into one per-slot authority.

The engine calls :meth:`FaultInjector.advance` once at the top of every
slot; the switch then consults the resulting :class:`SlotFaultState`
twice — at ingress (arrival drops) and between its schedule and
fabric-configure phases (port masks, crosspoint pruning, grant loss).
Every stochastic draw flows through a named
:class:`numpy.random.Generator` stream derived from the run's root seed
(``faults.grant_loss``, ``faults.cell_drop``), so fault-injected runs are
bit-identical for a given seed, including across worker processes.

The injector also keeps the loss/outage/recovery ledger that lands in
``SimulationSummary.faults`` (see :meth:`FaultInjector.report`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError
from repro.faults.models import (
    CellDropModel,
    CrosspointFailure,
    GrantLossModel,
    LinkDownSchedule,
)
from repro.packet import Packet
from repro.utils.bitsets import iter_bits
from repro.utils.rng import RngStreams
from repro.utils.validation import check_port_count

__all__ = ["SlotFaultState", "FaultInjector"]


@dataclass(frozen=True, slots=True)
class SlotFaultState:
    """Immutable view of every fault condition active in one slot.

    ``output_up`` / ``input_up`` are ``None`` when no port outage is
    active (the common case — keeps the fault-free slots allocation-free).
    """

    slot: int
    output_up: tuple[bool, ...] | None
    input_up: tuple[bool, ...] | None
    failed_crosspoints: frozenset[tuple[int, int]]

    @property
    def has_port_outage(self) -> bool:
        """True when at least one input or output port is down."""
        return self.output_up is not None or self.input_up is not None

    @property
    def degraded(self) -> bool:
        """True when any deterministic fault condition is active."""
        return self.has_port_outage or bool(self.failed_crosspoints)

    def output_is_down(self, port: int) -> bool:
        """True when output ``port`` is down this slot."""
        return self.output_up is not None and not self.output_up[port]

    def input_is_down(self, port: int) -> bool:
        """True when input ``port`` is down this slot."""
        return self.input_up is not None and not self.input_up[port]


#: The all-clear state shared by every fault-free slot.
_NO_CROSSPOINTS: frozenset[tuple[int, int]] = frozenset()


class FaultInjector:
    """Composes fault models and threads them through one simulation run.

    Parameters
    ----------
    num_ports:
        N of the switch under test; port/crosspoint indices are validated
        against it at construction.
    link_down:
        Optional :class:`~repro.faults.models.LinkDownSchedule`.
    crosspoints:
        Optional :class:`~repro.faults.models.CrosspointFailure`.
    grant_loss:
        Optional :class:`~repro.faults.models.GrantLossModel`.
    cell_drop:
        Optional :class:`~repro.faults.models.CellDropModel`.
    rng:
        An :class:`~repro.utils.rng.RngStreams` (preferred — the runner
        passes the run's streams so fault draws share the root seed), or
        an ``int`` / ``None`` root seed to build streams from.
    """

    def __init__(
        self,
        num_ports: int,
        *,
        link_down: LinkDownSchedule | None = None,
        crosspoints: CrosspointFailure | None = None,
        grant_loss: GrantLossModel | None = None,
        cell_drop: CellDropModel | None = None,
        rng: RngStreams | int | None = None,
    ) -> None:
        self.num_ports = check_port_count(num_ports)
        self.link_down = link_down
        self.crosspoints = crosspoints
        self.grant_loss = grant_loss
        self.cell_drop = cell_drop
        if link_down is not None and link_down.max_port() >= num_ports:
            raise ConfigurationError(
                f"outage references port {link_down.max_port()} on a "
                f"{num_ports}-port switch"
            )
        if crosspoints is not None and (
            crosspoints.max_input() >= num_ports
            or crosspoints.max_output() >= num_ports
        ):
            raise ConfigurationError(
                f"crosspoint failure out of range for a {num_ports}-port switch"
            )
        if cell_drop is not None and any(
            not 0 <= p < num_ports for p in cell_drop.input_ports or ()
        ):
            raise ConfigurationError(
                f"cell drop names input ports {list(cell_drop.input_ports)} on a "
                f"{num_ports}-port switch"
            )
        streams = rng if isinstance(rng, RngStreams) else RngStreams(rng)
        # One named stream per stochastic model: adding or removing one
        # model never perturbs the draws of another.
        self._grant_rng = streams.get("faults.grant_loss")
        self._drop_rng = streams.get("faults.cell_drop")
        # Per-slot state cache (advance() is idempotent per slot).
        self._state = SlotFaultState(
            slot=-1, output_up=None, input_up=None,
            failed_crosspoints=_NO_CROSSPOINTS,
        )
        # ---- the loss/outage/recovery ledger ----
        self.slots_advanced = 0
        self.outage_slots = 0
        self.crosspoint_fault_slots = 0
        self.degraded_slots = 0
        self.grants_lost = 0
        self.grants_blocked = 0
        self.packets_dropped = 0
        self.cells_dropped = 0

    # ------------------------------------------------------------------ #
    # Per-slot state
    # ------------------------------------------------------------------ #
    def advance(self, slot: int) -> SlotFaultState:
        """Compute (and account for) the fault state of ``slot``.

        Idempotent per slot: the engine advances at the top of each slot
        and the switch re-reads the cached state via :meth:`state_for`.
        """
        if slot == self._state.slot:
            return self._state
        n = self.num_ports
        output_up: tuple[bool, ...] | None = None
        input_up: tuple[bool, ...] | None = None
        if self.link_down is not None:
            down_out = self.link_down.down_outputs(slot)
            down_in = self.link_down.down_inputs(slot)
            if down_out:
                up = [True] * n
                for j in down_out:
                    up[j] = False
                output_up = tuple(up)
            if down_in:
                up = [True] * n
                for i in down_in:
                    up[i] = False
                input_up = tuple(up)
        failed = (
            self.crosspoints.failed_pairs(slot)
            if self.crosspoints is not None
            else _NO_CROSSPOINTS
        )
        state = SlotFaultState(
            slot=slot, output_up=output_up, input_up=input_up,
            failed_crosspoints=failed,
        )
        self._state = state
        self.slots_advanced += 1
        if state.has_port_outage:
            self.outage_slots += 1
        if failed:
            self.crosspoint_fault_slots += 1
        if state.degraded:
            self.degraded_slots += 1
        return state

    def state_for(self, slot: int) -> SlotFaultState:
        """The state of ``slot``, advancing on demand (standalone use)."""
        if slot != self._state.slot:
            return self.advance(slot)
        return self._state

    @property
    def current(self) -> SlotFaultState:
        """The most recently advanced slot's state."""
        return self._state

    # ------------------------------------------------------------------ #
    # Ingress: arrival drops
    # ------------------------------------------------------------------ #
    def drop_arrival(self, state: SlotFaultState, packet: Packet) -> bool:
        """Decide one arriving packet's fate; account for losses.

        A packet is lost when its input port is down, or by the
        :class:`~repro.faults.models.CellDropModel` draw. Returns True
        when the packet must be dropped before preprocessing.
        """
        dropped = False
        if state.input_is_down(packet.input_port):
            dropped = True
        elif self.cell_drop is not None and self.cell_drop.drop(
            state.slot, packet.input_port, self._drop_rng
        ):
            dropped = True
        if dropped:
            self.packets_dropped += 1
            self.cells_dropped += packet.fanout
        return dropped

    # ------------------------------------------------------------------ #
    # Between schedule and fabric-configure: decision pruning
    # ------------------------------------------------------------------ #
    def filter_decision(
        self, state: SlotFaultState, decision: ScheduleDecision
    ) -> tuple[ScheduleDecision, int]:
        """Prune a schedule decision down to what the faulty fabric can do.

        Branches to down ports or through failed crosspoints are *blocked*
        (the scheduler could not have known, e.g. when it does not support
        port masks); surviving branches are then subjected to the
        grant-loss draw in deterministic order (inputs ascending, outputs
        ascending). Returns ``(pruned_decision, grants_lost_this_slot)``;
        the same decision object comes back untouched when nothing prunes.
        """
        masks = decision.masks
        if not masks:
            return decision, 0
        lost = blocked = 0
        glm = self.grant_loss
        draw = glm is not None and glm.active(state.slot)
        if not (state.degraded or draw):
            return decision, 0
        failed = state.failed_crosspoints
        kept: dict[int, int] = {}
        for i in sorted(masks):
            mask = masks[i]
            if state.input_is_down(i):
                blocked += mask.bit_count()
                continue
            keep = mask
            for j in iter_bits(mask):
                if state.output_is_down(j) or (i, j) in failed:
                    blocked += 1
                elif draw and glm.lose(state.slot, self._grant_rng):
                    lost += 1
                else:
                    continue
                keep ^= 1 << j
            if keep:
                kept[i] = keep
        self.grants_lost += lost
        self.grants_blocked += blocked
        if not (lost or blocked):
            return decision, 0
        pruned = ScheduleDecision(
            masks=kept,
            rounds=decision.rounds,
            requests_made=decision.requests_made,
            round_grants=list(decision.round_grants),
        )
        return pruned, lost

    # ------------------------------------------------------------------ #
    # Recovery accounting
    # ------------------------------------------------------------------ #
    @property
    def recovery_slot(self) -> int | None:
        """Slot at which the last deterministic outage window closes.

        ``None`` when there is no outage schedule, or when some outage is
        permanent (``end=None``) and the switch never recovers.
        """
        ends: list[int] = []
        if self.link_down is not None and self.link_down.outages:
            last = self.link_down.last_end()
            if last is None:
                return None
            ends.append(last)
        if self.crosspoints is not None and self.crosspoints.outages:
            xp_ends = [o.end for o in self.crosspoints.outages]
            if any(e is None for e in xp_ends):
                return None
            ends.extend(e for e in xp_ends if e is not None)
        return max(ends) if ends else None

    def ledger(self) -> dict[str, int]:
        """The loss counters alone — the sanitizer's conservation anchor.

        Every loss this injector caused is accounted here, so a sanitized
        run can require the observed drop/grant-loss stream to cover the
        ledger exactly (see
        :class:`repro.sanitize.ConservationChecker`).
        """
        return {
            "grants_lost": self.grants_lost,
            "grants_blocked": self.grants_blocked,
            "packets_dropped": self.packets_dropped,
            "cells_dropped": self.cells_dropped,
        }

    def rng_streams(self) -> dict[str, object]:
        """The injector's named fault streams, for RNG-isolation checks.

        Keys mirror the ``RngStreams`` names the streams were derived
        from; the sanitizer trips when any of them alias another
        component's stream.
        """
        return {
            "faults.grant_loss": self._grant_rng,
            "faults.cell_drop": self._drop_rng,
        }

    def report(self) -> dict[str, object]:
        """The plain-dict loss/outage/recovery ledger for the summary.

        JSON-serializable on purpose: it rides home inside
        ``SimulationSummary.faults`` across process boundaries.
        """
        recovery = self.recovery_slot
        last_slot = self._state.slot
        return {
            "slots_advanced": self.slots_advanced,
            "outage_slots": self.outage_slots,
            "crosspoint_fault_slots": self.crosspoint_fault_slots,
            "degraded_slots": self.degraded_slots,
            **self.ledger(),
            "recovery_slot": recovery,
            "recovered": recovery is not None and last_slot >= recovery,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        active = [
            name
            for name, model in (
                ("link_down", self.link_down),
                ("crosspoints", self.crosspoints),
                ("grant_loss", self.grant_loss),
                ("cell_drop", self.cell_drop),
            )
            if model is not None
        ]
        return f"FaultInjector(N={self.num_ports}, models={active})"
