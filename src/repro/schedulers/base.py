"""Scheduler-facing views of the two baseline switch architectures.

Unicast VOQ schedulers (iSLIP, PIM, MaxWeight) do not need to see queue
contents — only occupancy counts and head-of-line ages, or just which
VOQs are non-empty — so the switch hands them a :class:`UnicastVOQView`
of per-output request bitmasks and NumPy matrices that its VOQ bank
maintains incrementally. Single-input-queue schedulers (TATRA, WBA,
SIQ-FIFO) see one :class:`SIQHolView` per slot: the non-empty inputs and, for the HOL
packet of each, its unserved-destination bitmask, arrival slot and id;
:func:`grant_best_key` is the arbitration pass WBA and SIQ-FIFO share
over it. ``backend`` (:func:`resolve_backend`) concerns neither view: it
names the multicast VOQ kernel a scheduler is handed.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro.core.matching import GrantSet, ScheduleDecision
from repro.errors import ConfigurationError
from repro.utils.bitsets import bitmask_to_tuple

__all__ = [
    "UnicastVOQView",
    "SIQHolView",
    "grant_best_key",
    "note_round",
    "DEFAULT_BACKENDS",
    "scheduler_backends",
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
    anything else runs on the object kernel.
    """
    return tuple(getattr(scheduler, "supported_backends", DEFAULT_BACKENDS))


def resolve_backend(scheduler: object, backend: str | None) -> str:
    """Resolve ``backend`` against the scheduler's declared support.

    ``None`` (left unset) resolves to the scheduler's preferred body —
    the last entry of its ``supported_backends``: ``"vectorized"`` for
    the schedulers that declare it, ``"object"`` for the ones that
    declare only that (no-splitting FIFOMS) or declare nothing. A name
    is returned unchanged when the scheduler supports it and otherwise
    raises :class:`~repro.errors.ConfigurationError` naming the
    scheduler and what it does support.
    """
    supported = scheduler_backends(scheduler)
    if backend is None:
        return supported[-1]
    if backend not in supported:
        name = getattr(scheduler, "name", type(scheduler).__name__)
        raise ConfigurationError(
            f"scheduler {name!r} does not support the {backend!r} kernel "
            f"backend (supported: {', '.join(supported)})"
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
    documents when the matrices exist), or by keyword from bare matrices
    — ``UnicastVOQView(occupancy=..., hol_arrival=..., current_slot=...)``
    — by tests and custom switches.

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
        hol_arrival: np.ndarray | None = None,
        cols: list[int] | None = None,
        bank: object | None = None,
    ) -> None:
        self.current_slot = current_slot
        self.cols = cols
        if bank is None:
            bank = SimpleNamespace(
                num_ports=len(occupancy),
                occupancy=occupancy,
                hol_arrival=hol_arrival,
            )
        self.num_ports = bank.num_ports
        # Read through on every access: a bank builds its matrices the
        # first time one is asked for, so a view nobody asks costs none.
        self._matrices = bank

    @property
    def occupancy(self) -> np.ndarray:
        return self._matrices.occupancy

    @property
    def hol_arrival(self) -> np.ndarray:
        return self._matrices.hol_arrival

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
    #: fanout splitting leaves a residue at the HOL, per TATRA/WBA).
    residue_bits: list[int]
    #: Arrival slot of each listed HOL packet.
    arrivals: list[int]
    #: Id of each listed HOL packet, so a stateful scheduler (TATRA's
    #: Tetris box) can tell a residue from a fresh HOL cell.
    packet_ids: list[int]


def grant_best_key(
    view: SIQHolView, keys: list, rng: np.random.Generator
) -> ScheduleDecision:
    """One arbitration pass: every requested output grants the HOL cell
    with the smallest key, ties drawn uniformly from ``rng``.

    ``keys[k]`` ranks the HOL cell of ``view.inputs[k]`` (WBA: negated
    weight; SIQ-FIFO: arrival slot). The cells are walked in ``(key,
    input)`` order: a cell keeps, in one mask operation, the outputs no
    strictly better cell asked for, and only an output wanted by several
    cells of one key is walked bit by bit. Those ties are then drawn in
    ascending output order over ascending-input winner lists, one draw
    per tied output — the order a per-output scan of the requests draws
    them in, so the generator advances identically.
    """
    decision = ScheduleDecision()
    if not view.inputs:
        return decision
    decision.requests_made = True
    order = sorted(zip(keys, view.inputs, view.residue_bits))
    granted: dict[int, int] = {}  # input -> bitmask of outputs won
    # ``better``: outputs asked for by a strictly smaller key; ``same``:
    # by the key being walked; ``clashed``: by two or more cells of one key.
    better = same = clashed = 0
    walked = None
    for key, i, bits in order:
        if key != walked:
            better |= same
            same = 0
            walked = key
        bits &= ~better
        if bits:
            clashed |= bits & same
            same |= bits
            granted[i] = bits
    if clashed:
        # Take each clashed output back from everyone holding it (rivals
        # share a key, so ``order`` lists them by ascending input), then
        # draw its winner.
        rivals: dict[int, list[int]] = {}
        for _, i, _ in order:
            clash = granted.get(i, 0) & clashed
            if not clash:
                continue
            granted[i] ^= clash
            while clash:
                low = clash & -clash
                clash ^= low
                rivals.setdefault(low, []).append(i)
        for low in sorted(rivals):
            tied = rivals[low]
            granted[tied[int(rng.integers(len(tied)))]] |= low
    grants = decision.grants
    for i in sorted(granted):
        if granted[i]:
            grants[i] = GrantSet(i, bitmask_to_tuple(granted[i]))
    decision.rounds = 1 if grants else 0
    return decision
