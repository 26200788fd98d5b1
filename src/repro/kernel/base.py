"""Kernel backend interface and registry.

A *kernel backend* owns the queue state of a multicast VOQ switch and
implements the four per-slot state transitions the switch layer needs:

1. ``admit``  — packet preprocessing (allocate data cell, enqueue
   address cells / placeholders);
2. ``schedule`` — run the scheduler against the backend's native state
   representation;
3. ``commit`` — post-transmission processing (pop HOL entries, decrement
   fanout counters, reclaim buffer space, append the grant rows);
4. metric/invariant taps (``queue_sizes``, ``total_backlog``,
   ``check_invariants``, ``state_arrays``).

Two implementations register themselves here:

* ``vectorized`` — production: the struct-of-arrays
  :class:`~repro.kernel.state.SwitchState` driven through the
  scheduler's ``schedule_state``, with no per-cell objects on the hot
  path.
* ``object`` — the reference: the scheduler's settings run on
  :class:`~repro.verify.reference.ReferenceFIFOMS`, per-cell
  ``AddressCell`` / ``DataCell`` objects exactly as the paper describes
  them, sharing no code with production (FIFOMS and greedy-mcast only).

The two are interchangeable and bit-exact; ``repro.verify.shadow``
holds production to the reference slot by slot, inside one run.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import ItemsView
from typing import TYPE_CHECKING, Any, Callable

from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError
from repro.packet import Packet

if TYPE_CHECKING:  # avoid a runtime repro.switch <-> repro.kernel cycle
    from repro.switch.base import SlotResult

__all__ = [
    "KernelBackend",
    "register_backend",
    "make_backend",
    "available_backends",
]


class KernelBackend(ABC):
    """Abstract per-slot state machine behind :class:`MulticastVOQSwitch`.

    Concrete backends are constructed by :func:`make_backend` and driven
    by the switch's template method: ``admit`` during the arrival phase,
    ``schedule`` + ``commit`` during the scheduling/transmission phase.
    """

    #: Registry key of the backend ("object" / "vectorized").
    name: str = ""

    @abstractmethod
    def admit(self, packet: Packet, slot: int) -> bool:
        """Preprocess one arriving packet; False means drop-tailed."""

    @abstractmethod
    def schedule(
        self,
        scheduler: Any,
        *,
        input_free: list[bool] | None = None,
        output_free: list[bool] | None = None,
    ) -> ScheduleDecision:
        """Run ``scheduler`` over this backend's state for one slot.

        ``input_free`` / ``output_free`` are the fault-mask vectors; when
        given, the ports a grant takes are marked reserved in them in
        place.
        """

    @abstractmethod
    def commit(
        self, decision: ScheduleDecision, result: SlotResult, slot: int
    ) -> None:
        """Apply a validated decision: pop served HOL entries, decrement
        fanout counters, reclaim exhausted buffer space, and append one
        ``(packet, output_mask)`` row per grant plus the
        ``cells_delivered`` / ``splits`` / ``reclaimed`` counts to
        ``result``."""

    def driver_row(self, decision: ScheduleDecision) -> ItemsView[int, int]:
        """The slot's crossbar rows, ``(driving input, output mask)`` in
        decision order: what both kernels' :meth:`commit` walk, so they
        serve grants and append rows in one order (docs/kernel.md,
        "The grant is a mask from round to commit")."""
        return decision.masks.items()

    def harvest_slot_stats(self) -> dict[str, object]:
        """Cheap per-slot counters derived from the backend's own state.

        Called by the *instrumented* engine loop after each ``step()`` so
        both kernels emit the same kernel-seam metric names and values
        (:class:`~repro.verify.shadow.ReferenceShadow` compares them every
        slot). Keys both built-in backends emit:

        * ``live_cells``    — live data cells across all inputs;
        * ``residue_cells`` — live data cells already partially served
          (a fanout split left a residue behind);
        * ``voq_peak``      — largest single-VOQ occupancy right now;
        * ``oldest_hol_ts`` — smallest HOL timestamp over all VOQs, or
          ``None`` when every VOQ is empty (the engine turns this into
          an HOL-age gauge).

        The default returns an empty dict, which the engine reads as
        "this backend has no kernel seam stats" — third-party backends
        opt in by overriding.
        """
        return {}

    @abstractmethod
    def queue_sizes(self) -> list[int]:
        """Live data cells per input (the paper's queue-size metric)."""

    @abstractmethod
    def total_backlog(self) -> int:
        """Pending (cell, destination) pairs across all inputs."""

    @abstractmethod
    def check_invariants(self) -> None:
        """Raise :class:`~repro.errors.SchedulingError` on state drift."""

    @abstractmethod
    def state_arrays(self) -> dict[str, object]:
        """Struct-of-arrays snapshot (HOL timestamps, occupancy, live
        counts, fanout counters) for equivalence comparison."""


_BACKENDS: dict[str, Callable[..., KernelBackend]] = {}


def register_backend(name: str, factory: Callable[..., KernelBackend]) -> None:
    """Register a backend factory under ``name``.

    The factory is called as ``factory(num_ports, buffer_capacity=...,
    buffer_overflow=...)`` and must return a :class:`KernelBackend`.
    """
    if not name or not name.isidentifier():
        raise ConfigurationError(f"invalid backend name {name!r}")
    _BACKENDS[name] = factory


def available_backends() -> tuple[str, ...]:
    """Sorted names of all registered kernel backends."""
    return tuple(sorted(_BACKENDS))


def make_backend(
    name: str,
    num_ports: int,
    *,
    buffer_capacity: int | None = None,
    buffer_overflow: str = "raise",
) -> KernelBackend:
    """Instantiate the kernel backend registered under ``name``."""
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        ) from None
    return factory(
        num_ports,
        buffer_capacity=buffer_capacity,
        buffer_overflow=buffer_overflow,
    )
