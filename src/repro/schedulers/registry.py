"""Registry mapping algorithm names to fully-wired switch instances.

The experiment harness, CLI and benchmarks refer to algorithms by short
string names ("fifoms", "tatra", ...). Each name maps to a factory that
builds the right switch architecture *and* scheduler pairing — e.g.
"tatra" always rides the single-input-queued switch, matching the paper's
setup. Extensions can add entries with :func:`register_switch_factory`
(see examples/custom_scheduler.py).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.fifoms import FIFOMSScheduler, TieBreak
from repro.errors import ConfigurationError
from repro.kernel.base import available_backends
from repro.schedulers.greedy_mcast import GreedyMcastScheduler
from repro.schedulers.islip import ISLIPScheduler
from repro.schedulers.maxweight import MaxWeightScheduler
from repro.schedulers.pim import PIMScheduler
from repro.schedulers.siq_fifo import SIQFifoScheduler
from repro.schedulers.tatra import TATRAScheduler
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.switch.base import BaseSwitch

# NOTE: switch classes are imported inside the factory bodies, not here —
# the switch modules import repro.schedulers.base for their view types, so
# a top-level import in either direction would be circular.

__all__ = ["make_switch", "available_schedulers", "register_switch_factory"]

SwitchFactory = Callable[..., "BaseSwitch"]

_REGISTRY: dict[str, SwitchFactory] = {}


def register_switch_factory(name: str, factory: SwitchFactory) -> None:
    """Register (or replace) a named switch factory.

    ``factory(num_ports, *, rng=None, **kwargs)`` must return a
    :class:`~repro.switch.base.BaseSwitch`.
    """
    if not name or not isinstance(name, str):
        raise ConfigurationError(f"factory name must be a non-empty str, got {name!r}")
    _REGISTRY[name.lower()] = factory


def available_schedulers() -> tuple[str, ...]:
    """Sorted tuple of registered algorithm names."""
    return tuple(sorted(_REGISTRY))


def make_switch(
    name: str,
    num_ports: int,
    *,
    rng: int | np.random.Generator | None = None,
    backend: str | None = None,
    **kwargs: object,
) -> "BaseSwitch":
    """Build the switch+scheduler pairing for algorithm ``name``.

    ``rng`` seeds the scheduler's tie-breaking stream (ignored by
    deterministic algorithms). ``backend`` names the multicast VOQ
    kernel the scheduler is handed: "vectorized" (``SwitchState``,
    production) or "object" (the paper-literal reference model of
    :mod:`repro.verify.reference`). It
    selects something only for the pairings on that switch — fifoms and
    greedy-mcast; every other pairing has one body, accepts any
    registered name and builds the same switch. Left unset (``None``,
    the default) it resolves to the pairing's fast body: "vectorized"
    for the two dual pairings, whose schedulers define
    ``schedule_state`` (:func:`~repro.schedulers.base.resolve_backend`).
    ``switch.backend`` reports what was built. An unregistered name
    raises :class:`~repro.errors.ConfigurationError` for every pairing.
    Extra keyword arguments are forwarded to the factory (e.g.
    ``max_iterations`` for fifoms/islip/pim).
    """
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheduler {name!r}; available: {', '.join(available_schedulers())}"
        ) from None
    if backend is not None:
        # Injected only when given so extension factories that never
        # heard of backends keep working on the default.
        kwargs["backend"] = backend
    return factory(num_ports, rng=rng, **kwargs)


def _discard_backend(kw: dict, name: str) -> None:
    """Validate, then drop, the ``backend`` kwarg of a single-bodied pairing.

    The switch these factories build holds one representation of its
    queue state and takes no ``backend`` argument, so a registered name
    selects nothing; an unregistered one is still a configuration error,
    as it is for the pairings that do choose.
    """
    backend = kw.pop("backend", None)
    if backend is not None and backend not in available_backends():
        raise ConfigurationError(
            f"switch pairing {name!r} got unknown kernel backend "
            f"{backend!r}; available: {', '.join(available_backends())}"
        )


# --------------------------------------------------------------------- #
# Built-in pairings (the paper's four algorithms + extensions)
# --------------------------------------------------------------------- #
def _fifoms(num_ports: int, *, rng=None, **kw) -> "BaseSwitch":
    from repro.switch.voq_multicast import MulticastVOQSwitch

    tie = kw.pop("tie_break", TieBreak.RANDOM)
    if isinstance(tie, str):
        tie = TieBreak(tie)
    sched = FIFOMSScheduler(
        num_ports,
        tie_break=tie,
        max_iterations=kw.pop("max_iterations", None),
        fanout_splitting=kw.pop("fanout_splitting", True),
        rng=rng,
    )
    return MulticastVOQSwitch(num_ports, sched, **kw)


def _islip(num_ports: int, *, rng=None, **kw) -> "BaseSwitch":
    from repro.switch.voq_unicast import UnicastVOQSwitch

    _discard_backend(kw, "islip")
    sched = ISLIPScheduler(num_ports, max_iterations=kw.pop("max_iterations", None))
    return UnicastVOQSwitch(num_ports, sched, **kw)


def _pim(num_ports: int, *, rng=None, **kw) -> "BaseSwitch":
    from repro.switch.voq_unicast import UnicastVOQSwitch

    _discard_backend(kw, "pim")
    sched = PIMScheduler(
        num_ports, max_iterations=kw.pop("max_iterations", None), rng=rng
    )
    return UnicastVOQSwitch(num_ports, sched, **kw)


def _maxweight(num_ports: int, *, rng=None, **kw) -> "BaseSwitch":
    from repro.switch.voq_unicast import UnicastVOQSwitch

    _discard_backend(kw, "maxweight-lqf")
    return UnicastVOQSwitch(num_ports, MaxWeightScheduler(num_ports), **kw)


def _tatra(num_ports: int, *, rng=None, **kw) -> "BaseSwitch":
    from repro.switch.single_queue import SingleInputQueueSwitch

    _discard_backend(kw, "tatra")
    return SingleInputQueueSwitch(num_ports, TATRAScheduler(num_ports), **kw)


def _siq_fifo(num_ports: int, *, rng=None, **kw) -> "BaseSwitch":
    from repro.switch.single_queue import SingleInputQueueSwitch

    _discard_backend(kw, "siq-fifo")
    return SingleInputQueueSwitch(num_ports, SIQFifoScheduler(num_ports, rng=rng), **kw)


def _greedy(num_ports: int, *, rng=None, **kw) -> "BaseSwitch":
    from repro.switch.voq_multicast import MulticastVOQSwitch

    return MulticastVOQSwitch(num_ports, GreedyMcastScheduler(num_ports), **kw)


def _oqfifo(num_ports: int, *, rng=None, **kw) -> "BaseSwitch":
    from repro.switch.output_queue import OutputQueuedSwitch

    _discard_backend(kw, "oqfifo")
    return OutputQueuedSwitch(num_ports, **kw)


def _cioq(num_ports: int, *, rng=None, **kw) -> "BaseSwitch":
    from repro.schedulers.islip import ISLIPScheduler
    from repro.switch.cioq import CIOQSwitch

    _discard_backend(kw, "cioq-islip")
    speedup = kw.pop("speedup", 2)
    return CIOQSwitch(num_ports, speedup, ISLIPScheduler(num_ports), **kw)


def _cicq(num_ports: int, *, rng=None, **kw) -> "BaseSwitch":
    from repro.switch.cicq import BufferedCrossbarSwitch

    _discard_backend(kw, "cicq")
    return BufferedCrossbarSwitch(
        num_ports, crosspoint_depth=kw.pop("crosspoint_depth", 1), **kw
    )


def _eslip(num_ports: int, *, rng=None, **kw) -> "BaseSwitch":
    from repro.switch.eslip import ESLIPSwitch

    _discard_backend(kw, "eslip")
    return ESLIPSwitch(
        num_ports, max_iterations=kw.pop("max_iterations", None), **kw
    )


register_switch_factory("fifoms", _fifoms)
register_switch_factory("islip", _islip)
register_switch_factory("pim", _pim)
register_switch_factory("maxweight-lqf", _maxweight)
register_switch_factory("tatra", _tatra)
register_switch_factory("siq-fifo", _siq_fifo)
register_switch_factory("greedy-mcast", _greedy)
register_switch_factory("oqfifo", _oqfifo)
register_switch_factory("cioq-islip", _cioq)
register_switch_factory("cicq", _cicq)
register_switch_factory("eslip", _eslip)
