"""Scheduler-facing views of the two baseline switch architectures.

Unicast VOQ schedulers (iSLIP, PIM, MaxWeight) do not need to see queue
contents — only occupancy counts and head-of-line ages, or just which
VOQs are non-empty — so the switch hands them a :class:`UnicastVOQView`
of per-output request bitmasks and NumPy matrices that its VOQ bank
maintains incrementally. Single-input-queue schedulers (TATRA, SIQ-FIFO)
see one :class:`SIQHolView` per slot: the non-empty inputs and, for the
HOL packet of each, its unserved-destination bitmask, arrival slot and
id. ``backend`` (:func:`resolve_backend`) concerns neither view: it
names the multicast VOQ kernel a scheduler is handed.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro.core.fifoms import FIFOMSScheduler
from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError
from repro.schedulers.greedy_mcast import GreedyMcastScheduler

__all__ = [
    "UnicastVOQView",
    "SIQHolView",
    "note_round",
    "resolve_backend",
]


def resolve_backend(scheduler: object, backend: str | None) -> str:
    """Resolve ``backend`` against the multicast VOQ kernels ``scheduler``
    can drive, refusing at construction what it cannot.

    The switch drives a scheduler through ``schedule_state`` alone, so a
    scheduler without one is refused whatever ``backend`` says.
    ``"vectorized"`` (what ``None``, left unset, resolves to) runs it;
    ``"object"`` runs the reference model of :mod:`repro.verify.reference`
    instead, which exists for FIFOMS and greedy-mcast only. Every refusal
    is a :class:`~repro.errors.ConfigurationError` naming the scheduler.
    """
    name = getattr(scheduler, "name", type(scheduler).__name__)
    if not hasattr(scheduler, "schedule_state"):
        raise ConfigurationError(
            f"scheduler {name!r} defines no schedule_state(state, *, "
            "input_free, output_free), the one entry point the multicast "
            "VOQ switch drives"
        )
    if backend is None:
        return "vectorized"
    if backend == "object" and not isinstance(
        scheduler, (FIFOMSScheduler, GreedyMcastScheduler)
    ):
        raise ConfigurationError(
            f"scheduler {name!r} has no reference model: the 'object' "
            "kernel runs fifoms and greedy-mcast only"
        )
    if backend not in ("object", "vectorized"):
        raise ConfigurationError(
            f"scheduler {name!r} does not support the {backend!r} kernel "
            f"backend (supported: object, vectorized)"
        )
    return backend


def note_round(decision: ScheduleDecision, new_matches: int) -> None:
    """Record one scheduling round's new-match count on the decision.

    Iterative schedulers (FIFOMS, iSLIP) call this once per productive
    round; the switch forwards the counts on ``SlotResult.round_grants``
    and the telemetry tracer emits them per slot, which is how the
    convergence behaviour behind the paper's Fig. 5 becomes visible in a
    single run's trace instead of only as a sweep-level average.
    """
    decision.round_grants.append(new_matches)


class UnicastVOQView:
    """What a unicast scheduler may read of a switch's N² VOQs in one slot.

    Built by :meth:`repro.switch.voq_bank.UnicastVOQBank.view` (which
    documents when the count matrix exists), or by keyword from a bare one
    — ``UnicastVOQView(occupancy=..., current_slot=...)``
    — by tests and custom switches.

    Attributes
    ----------
    occupancy:
        ``occupancy[i, j]`` = number of cells queued at input i for
        output j.
    current_slot:
        The slot being scheduled.
    cols:
        ``cols[j]`` = bitmask of the inputs whose VOQ for output j is
        non-empty (bit i set <=> ``occupancy[i, j] > 0``) — the request
        bit-vector a mask-based arbiter (iSLIP) reads instead of the
        count matrix. A bank passes its own list, so schedulers must not
        write to it; a view built without it derives it from
        ``occupancy`` on first use.
    """

    __slots__ = ("current_slot", "cols", "num_ports", "_matrices")

    def __init__(
        self,
        *,
        current_slot: int,
        occupancy: np.ndarray | None = None,
        cols: list[int] | None = None,
        bank: object | None = None,
    ) -> None:
        self.current_slot = current_slot
        self.cols = cols
        if bank is None:
            bank = SimpleNamespace(num_ports=len(occupancy), occupancy=occupancy)
        self.num_ports = bank.num_ports
        # Read through on every access: a bank builds its matrices the
        # first time one is asked for, so a view nobody asks costs none.
        self._matrices = bank

    @property
    def occupancy(self) -> np.ndarray:
        return self._matrices.occupancy

    def request_columns(self) -> list[int]:
        """Per-output request bitmasks (:attr:`cols`), derived from
        ``occupancy`` when the view was built without them."""
        if self.cols is None:
            cols = [0] * self.num_ports
            rows, columns = np.nonzero(self.occupancy)
            for i, j in zip(rows.tolist(), columns.tolist()):
                cols[j] |= 1 << i
            self.cols = cols
        return self.cols


@dataclass(slots=True)
class SIQHolView:
    """The visible HOL cell of every non-empty single-input-queue input.

    Parallel lists, entry k describing the HOL packet of ``inputs[k]``;
    the switch keeps the residues as per-input bitmasks and lists them
    here as they are, so a slot's view costs O(non-empty inputs) however
    long the queues behind the HOL cells have grown.
    """

    current_slot: int
    #: Non-empty input ports, ascending.
    inputs: list[int]
    #: Unserved destinations of each listed HOL packet (bit j = output j;
    #: fanout splitting leaves a residue at the HOL, per TATRA).
    residue_bits: list[int]
    #: Arrival slot of each listed HOL packet.
    arrivals: list[int]
    #: Id of each listed HOL packet, so a stateful scheduler (TATRA's
    #: Tetris box) can tell a residue from a fresh HOL cell.
    packet_ids: list[int]
