"""repro.kernel — pluggable switch-state backends.

The kernel package separates *what* a multicast VOQ switch does each slot
(admit, schedule, commit) from *how* the queue state is represented:

* :mod:`repro.kernel.base` — the :class:`~repro.kernel.base.KernelBackend`
  interface and the backend registry;
* :mod:`repro.kernel.reference_backend` — the ``object`` kernel: the
  scheduler's settings run on the reference FIFOMS of
  :mod:`repro.verify.reference` by one ``repro.verify.shadow`` lane;
* :mod:`repro.kernel.vectorized` — struct-of-arrays state
  (:class:`~repro.kernel.state.SwitchState`): integer packet ids, a
  recycled packet table and the HOL-packet index (per packet a bitmask
  of the VOQs it heads, per input its heading packets oldest first)
  that makes a request/grant round cost the competing HOL packets, not
  N² — no per-cell objects and no numpy call on the hot path.

What holds the two kernels to each other lives in :mod:`repro.verify`.

Select a backend with ``MulticastVOQSwitch(..., backend="vectorized")``,
``run_simulation(..., backend=...)``, or ``repro run --backend ...``.
"""

from repro.kernel.base import (
    KernelBackend,
    available_backends,
    make_backend,
    register_backend,
)
from repro.kernel.reference_backend import ReferenceBackend
from repro.kernel.state import SwitchState
from repro.kernel.vectorized import VectorizedBackend

__all__ = [
    "KernelBackend",
    "SwitchState",
    "ReferenceBackend",
    "VectorizedBackend",
    "available_backends",
    "make_backend",
    "register_backend",
]
