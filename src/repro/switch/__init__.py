"""Discrete time-slot switch models.

Four switch architectures, matching the paper's Fig. 1 plus the paper's
own contribution:

* :class:`MulticastVOQSwitch` — the paper's multicast VOQ structure
  (data/address cells), driven by FIFOMS or any multicast VOQ scheduler.
* :class:`UnicastVOQSwitch` — classic N² VOQ switch; multicast packets are
  split into independent unicast copies (how the paper runs iSLIP).
* :class:`SingleInputQueueSwitch` — one FIFO per input (Fig. 1b), the
  substrate for TATRA and SIQ-FIFO; exhibits HOL blocking.
* :class:`OutputQueuedSwitch` — Fig. 1a with speedup N, the paper's
  "ultimate performance benchmark" (OQFIFO).
"""

from repro.switch.base import BaseSwitch, SlotResult
from repro.switch.voq_multicast import MulticastVOQSwitch
from repro.switch.voq_unicast import UnicastVOQSwitch
from repro.switch.single_queue import SingleInputQueueSwitch
from repro.switch.output_queue import OutputQueuedSwitch

__all__ = [
    "BaseSwitch",
    "SlotResult",
    "MulticastVOQSwitch",
    "UnicastVOQSwitch",
    "SingleInputQueueSwitch",
    "OutputQueuedSwitch",
]
