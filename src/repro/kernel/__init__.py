"""repro.kernel — pluggable switch-state backends.

The kernel package separates *what* a multicast VOQ switch does each slot
(admit, schedule, commit) from *how* the queue state is represented:

* :mod:`repro.kernel.base` — the :class:`~repro.kernel.base.KernelBackend`
  interface and the backend registry;
* :mod:`repro.kernel.object_backend` — reference per-cell semantics
  (the paper's address/data-cell objects);
* :mod:`repro.kernel.vectorized` — struct-of-arrays state
  (:class:`~repro.kernel.state.SwitchState`): integer packet ids, a
  recycled packet table and the HOL-packet index (per packet a bitmask
  of the VOQs it heads, per input its heading packets oldest first)
  that makes a request/grant round cost the competing HOL packets, not
  N² — no per-cell objects and no numpy call on the hot path;
* :mod:`repro.kernel.equivalence` — the harness proving the two backends
  bit-identical (import it explicitly; it pulls in the simulation stack).

Select a backend with ``MulticastVOQSwitch(..., backend="vectorized")``,
``run_simulation(..., backend=...)``, or ``repro run --backend ...``.
"""

from repro.kernel.base import (
    KernelBackend,
    available_backends,
    make_backend,
    register_backend,
)
from repro.kernel.object_backend import ObjectBackend
from repro.kernel.state import SwitchState, soa_snapshot
from repro.kernel.vectorized import VectorizedBackend

__all__ = [
    "KernelBackend",
    "SwitchState",
    "ObjectBackend",
    "VectorizedBackend",
    "available_backends",
    "make_backend",
    "register_backend",
    "soa_snapshot",
]
