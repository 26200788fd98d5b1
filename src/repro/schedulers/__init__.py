"""Baseline schedulers the paper compares against, plus extensions.

* :class:`ISLIPScheduler` — iSLIP (McKeown '99), unicast VOQ.
* :class:`PIMScheduler` — Parallel Iterative Matching (Anderson et al. '93).
* :class:`MaxWeightScheduler` — LQF maximum-weight matching reference.
* :class:`TATRAScheduler` — Tetris-based multicast scheduling on the
  single-input-queued switch (Ahuja/Prabhakar/McKeown '97).
* :class:`SIQFifoScheduler` — oldest-cell-first greedy on the
  single-input-queued switch (FIFOMS's rule minus the VOQ structure).
* :class:`GreedyMcastScheduler` — round-robin greedy fanout-splitting
  scheduler on the multicast VOQ switch (ablation baseline).
"""

from repro.schedulers.base import SIQHolView, UnicastVOQView, resolve_backend
from repro.schedulers.islip import ISLIPScheduler
from repro.schedulers.pim import PIMScheduler
from repro.schedulers.maxweight import MaxWeightScheduler
from repro.schedulers.tatra import TATRAScheduler
from repro.schedulers.siq_fifo import SIQFifoScheduler
from repro.schedulers.greedy_mcast import GreedyMcastScheduler
from repro.schedulers.registry import (
    available_schedulers,
    make_switch,
    register_switch_factory,
)

__all__ = [
    "UnicastVOQView",
    "SIQHolView",
    "resolve_backend",
    "ISLIPScheduler",
    "PIMScheduler",
    "MaxWeightScheduler",
    "TATRAScheduler",
    "SIQFifoScheduler",
    "GreedyMcastScheduler",
    "available_schedulers",
    "make_switch",
    "register_switch_factory",
]
