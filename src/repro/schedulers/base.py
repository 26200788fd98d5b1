"""Scheduler-facing views of the two baseline switch architectures.

Unicast VOQ schedulers (iSLIP, PIM, MaxWeight) do not need to see queue
contents — only occupancy counts and head-of-line ages, or just which
VOQs are non-empty — so the switch hands them a :class:`UnicastVOQView`
of NumPy arrays and per-output request bitmasks that it maintains
incrementally. Single-input-queue schedulers (TATRA, WBA, SIQ-FIFO) see
one :class:`SIQHolCell` per non-empty input: the HOL packet's remaining
destination set and arrival time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError

__all__ = [
    "UnicastVOQView",
    "SIQHolCell",
    "SIQHolView",
    "note_round",
    "DEFAULT_BACKENDS",
    "scheduler_backends",
    "object_only_reason",
    "resolve_backend",
]

#: Backends a scheduler supports when it declares nothing: the per-cell
#: object model is always available; the vectorized kernel is opt-in via
#: a ``supported_backends`` attribute.
DEFAULT_BACKENDS: tuple[str, ...] = ("object",)


def scheduler_backends(scheduler: object) -> tuple[str, ...]:
    """Kernel backends ``scheduler`` declares support for.

    Schedulers opt in by exposing ``supported_backends`` (attribute or
    property), listed reference body first and preferred body last;
    anything else is object-only.
    """
    return tuple(getattr(scheduler, "supported_backends", DEFAULT_BACKENDS))


def object_only_reason(scheduler: object) -> str | None:
    """The declared reason a scheduler (or switch) is object-only.

    Components that deliberately stay off the vectorized kernel declare
    ``object_only_reason`` — a human-readable sentence explaining *why*
    (e.g. TATRA's box algorithm is inherently sequential and measured
    slower vectorized). The registry surfaces it in rejection errors and
    the equivalence grid generator uses it to skip the combination with
    an explicit, auditable reason instead of silence.
    """
    reason = getattr(scheduler, "object_only_reason", None)
    return str(reason) if reason else None


def resolve_backend(scheduler: object, backend: str | None) -> str:
    """Resolve ``backend`` against the scheduler's declared support.

    ``None`` (left unset) resolves to the scheduler's preferred body —
    the last entry of its ``supported_backends``: ``"vectorized"`` for
    the schedulers that declare it, ``"object"`` for the ones that are
    object-only by their own declaration (TATRA, no-splitting FIFOMS) or
    declare nothing. A name is returned unchanged when the scheduler
    supports it and otherwise raises
    :class:`~repro.errors.ConfigurationError` naming the scheduler, what
    it does support, and — when declared — why it is object-only.
    """
    supported = scheduler_backends(scheduler)
    if backend is None:
        return supported[-1]
    if backend not in supported:
        name = getattr(scheduler, "name", type(scheduler).__name__)
        message = (
            f"scheduler {name!r} does not support the {backend!r} kernel "
            f"backend (supported: {', '.join(supported)})"
        )
        reason = object_only_reason(scheduler)
        if reason is not None:
            message += f" — {reason}"
        raise ConfigurationError(message)
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


@dataclass(slots=True)
class UnicastVOQView:
    """Snapshot arrays describing a unicast VOQ switch's N² queues.

    Attributes
    ----------
    occupancy:
        ``occupancy[i, j]`` = number of cells queued at input i for
        output j.
    hol_arrival:
        ``hol_arrival[i, j]`` = arrival slot of the HOL cell of VOQ (i, j),
        or -1 when the VOQ is empty. Used by OCF weights and by tests.
    current_slot:
        The slot being scheduled (for age computations).
    cols:
        ``cols[j]`` = bitmask of the inputs whose VOQ for output j is
        non-empty (bit i set <=> ``occupancy[i, j] > 0``) — the request
        bit-vector a mask-based arbiter (iSLIP) reads instead of the
        count matrix. The switches keep it incrementally and pass their
        own list, so schedulers must not write to it; a view built
        without it derives it from ``occupancy`` on first use.
    """

    occupancy: np.ndarray
    hol_arrival: np.ndarray
    current_slot: int
    cols: list[int] | None = None

    @property
    def num_ports(self) -> int:
        return self.occupancy.shape[0]

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

    def request_matrix(self) -> np.ndarray:
        """Boolean (N, N): input i has something for output j."""
        return self.occupancy > 0

    def hol_age(self) -> np.ndarray:
        """(N, N) waiting time of HOL cells (+1 so a fresh cell has weight
        1, not 0); 0 where the VOQ is empty."""
        age = np.where(
            self.hol_arrival >= 0, self.current_slot - self.hol_arrival + 1, 0
        )
        return age.astype(np.int64)


@dataclass(frozen=True, slots=True)
class SIQHolCell:
    """The visible HOL cell of one single-input-queue input port.

    ``remaining`` is the set of destinations not yet served (fanout
    splitting leaves a residue at the HOL, per TATRA/WBA semantics);
    ``arrival_slot`` is the packet's arrival time; ``packet_id``
    identifies the cell across slots so stateful schedulers (TATRA's
    Tetris box) can tell a residue from a fresh HOL cell.
    """

    input_port: int
    remaining: frozenset[int]
    arrival_slot: int
    packet_id: int


@dataclass(slots=True)
class SIQHolView:
    """SoA snapshot of every visible SIQ HOL cell for one slot.

    The single-input-queue switch keeps its HOL residues as per-input
    bitmasks (bit j set = output j still unserved) and hands the
    vectorized kernel this parallel-list view of the non-empty inputs —
    no per-cell objects, no set materialization. Entry k describes the
    HOL cell of ``inputs[k]`` (ascending input order, exactly the order
    :meth:`~repro.switch.single_queue.SingleInputQueueSwitch.hol_cells`
    lists cells for the object path).
    """

    num_ports: int
    current_slot: int
    #: Non-empty input ports, ascending.
    inputs: list[int]
    #: Residue bitmask of each listed input's HOL cell.
    residue_bits: list[int]
    #: Arrival slot of each listed input's HOL cell.
    arrivals: list[int]

    def fanouts(self) -> list[int]:
        """Residue size (|remaining|) per listed input."""
        return [b.bit_count() for b in self.residue_bits]

    def member_matrix(self) -> np.ndarray:
        """Boolean (m, N): listed cell k's residue contains output j.

        For N <= 64 the residue bitmasks unpack in three array ops (one
        broadcast shift, one mask, one cast); wider switches fall back
        to a per-set-bit fill, still touching only the set bits.
        """
        m = len(self.inputs)
        n = self.num_ports
        if n <= 64:
            bits = np.array(self.residue_bits, dtype=np.uint64)
            lanes = np.arange(n, dtype=np.uint64)
            return ((bits[:, None] >> lanes) & np.uint64(1)).astype(bool)
        member = np.zeros((m, n), dtype=bool)
        for k, b in enumerate(self.residue_bits):
            while b:
                low = b & -b
                member[k, low.bit_length() - 1] = True
                b ^= low
        return member
