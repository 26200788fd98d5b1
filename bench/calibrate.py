"""Host-speed calibration: a fixed kernel timed around every measured call.

The reference box is a shared microVM. Its speed is not constant: with
busy neighbours the same deterministic run was measured anywhere from
1x to 2.5x its calm wall time, for seconds to tens of minutes at a
stretch, and CPU time moved with wall time (the cores themselves run
slower; it is not only preemption). Runs that a gate compares are taken
many minutes apart, so no amount of repeating inside one run averages
that away.

What does track it is a fixed piece of work timed next to the call.
``bracket`` runs this kernel just before and just after the call it
measures — never inside it — and reports

    host_speed = REFERENCE_NS * calls / time spent in the kernel

which is 1.0 on the calm reference box and 0.5 on a host running at half
its speed. Every child of every workload is measured this one way.

The kernel mixes what the simulator's hot paths mix: interpreter
dispatch, small-array numpy calls, list building. It is frozen: editing
it, or REFERENCE_NS, re-bases every number in every result file.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

#: Wall time of one ``kernel()`` call on the calm reference box.
REFERENCE_NS = 2_000_000

#: Kernel calls on each side of the measured call.
CALLS_PER_SIDE = 50

_GRID = np.arange(256, dtype=np.int64).reshape(16, 16)


def kernel() -> int:
    """About 2 ms of interpreter + small-numpy work; no allocation kept."""
    acc = 0
    for i in range(400):
        rows = (_GRID + i) % 7
        acc += int(rows.min(axis=1).sum()) + len([x for x in range(16) if x & i])
    return acc


def bracket(clock: Callable[[], int], call: Callable[[], Any]) -> tuple[Any, int, float]:
    """``call()``'s result, its wall time in ns, and the host speed seen
    around it."""

    def side() -> int:
        t0 = clock()
        for _ in range(CALLS_PER_SIDE):
            kernel()
        return clock() - t0

    kernel_ns = side()
    t0 = clock()
    result = call()
    wall_ns = clock() - t0
    kernel_ns += side()
    return result, wall_ns, REFERENCE_NS * 2 * CALLS_PER_SIDE / kernel_ns
