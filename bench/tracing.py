"""Benchmark-owned spans around the calls into each simulator layer.

The simulator is measured from outside: every span is recorded by a
delegate installed as an *instance* attribute over a public method
(``traffic.next_slot``, ``switch.step``, ...), and the kernel seam
(``admit`` / ``commit`` / ``driver_row``) is reached by re-registering
the backend name through the public ``register_backend`` with a factory
that wraps the freshly built backend the same way. No file under
``src/`` knows it is being traced.

A span is (name, start, end, parent). Spans stay in memory for the whole
run; ``Tracer.totals`` folds them once the run has ended. A layer's self
time is its span's duration minus the durations of its direct children.
The bookkeeping between two clock reads is charged to the layer; the
bookkeeping outside them lands in the parent's self time — together
they are what ``trace.overhead_pct`` reports.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

#: span name -> (object path from the engine, method names to wrap).
#: Every method that exists is wrapped; only the one the backend
#: actually calls records spans.
ENGINE_SPANS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("traffic.next_slot", "traffic", ("next_slot",)),
    ("switch.queue_sizes", "switch", ("queue_sizes",)),
    ("stats.on_slot", "collector", ("on_slot",)),
    ("sanitize.on_slot", "sanitizer", ("on_slot",)),
    (
        "scheduler.schedule",
        "switch.scheduler",
        ("schedule", "schedule_state", "schedule_vectorized"),
    ),
    ("fabric.configure", "switch.crossbar", ("configure", "configure_drivers")),
    ("fabric.release", "switch.crossbar", ("release",)),
)

KERNEL_SPANS = (
    ("kernel.admit", "admit"),
    ("kernel.commit", "commit"),
    ("kernel.driver_row", "driver_row"),
)


class Tracer:
    """In-memory span store with a call stack for parent links."""

    def __init__(self, clock: Callable[[], int]) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack: list[int] = []

    def wrap(
        self,
        obj: Any,
        attr: str,
        name: str,
        observe: Callable[[Any], None] | None = None,
    ) -> None:
        """Shadow ``obj.attr`` with a delegate that records one span per
        call; ``observe`` sees the return value after the span closed."""
        fn = getattr(obj, attr)
        clock = self.clock
        names, starts, ends, parents = (
            self.names, self.starts, self.ends, self.parents,
        )
        stack = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            result = fn(*args, **kwargs)
            ends[index] = clock()
            stack.pop()
            if observe is not None:
                observe(result)
            return result

        setattr(obj, attr, traced)

    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name: call count, inclusive ns, self ns."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        children = [0] * len(durations)
        for duration, parent in zip(durations, self.parents):
            if parent >= 0:
                children[parent] += duration
        out: dict[str, dict[str, int]] = {}
        for name, duration, child in zip(self.names, durations, children):
            entry = out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["ns"] += duration
            entry["self_ns"] += duration - child
        return out

    def write(self, path: Path) -> None:
        """Dump the raw spans as four parallel columns; ``parent`` is an
        index into them, -1 for a root."""
        path.write_text(json.dumps({
            "name": self.names, "start": self.starts,
            "end": self.ends, "parent": self.parents,
        }))


class SlotCounts:
    """Exact per-run counts read off each ``SlotResult`` at the
    ``switch.step`` boundary."""

    def __init__(self) -> None:
        self.rounds = 0
        self.grants = 0

    def observe(self, result: Any) -> None:
        self.rounds += result.rounds
        self.grants += sum(result.round_grants)


def trace_kernel_backend(tracer: Tracer) -> None:
    """Re-register the ``vectorized`` backend so every instance built
    from now on has its seam methods traced."""
    from repro.kernel import VectorizedBackend, register_backend

    def factory(num_ports: int, **kwargs: Any) -> Any:
        backend = VectorizedBackend(num_ports, **kwargs)
        for span, method in KERNEL_SPANS:
            tracer.wrap(backend, method, span)
        return backend

    register_backend("vectorized", factory)


def trace_engine(tracer: Tracer, engine: Any) -> SlotCounts:
    """Install the layer spans on one built engine (before ``run``)."""
    counts = SlotCounts()
    tracer.wrap(engine.switch, "step", "switch.step", counts.observe)
    for span, path, methods in ENGINE_SPANS:
        target = engine
        for part in path.split("."):
            target = getattr(target, part, None)
        if target is None:
            continue
        for method in methods:
            if hasattr(target, method):
                tracer.wrap(target, method, span)
    tracer.wrap(engine, "run", "engine.run")
    return counts


def layer_metrics(
    totals: dict[str, dict[str, int]],
    counts: SlotCounts,
    engine: Any,
    slots: int,
    traced_wall_ns: int,
) -> dict[str, float]:
    """The per-layer metrics of one traced single-run workload."""

    def ns(name: str, key: str = "ns") -> float:
        return totals.get(name, {}).get(key, 0) / slots

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0) / slots

    switch = engine.switch
    # Whole-run exact counts from the switch's own public ledgers: with
    # no drops, cells offered = cells delivered + cells still queued.
    cells = switch.cells_delivered + switch.total_backlog()
    has_kernel = "kernel.commit" in totals
    rounds = counts.rounds
    schedule_ns = totals.get("scheduler.schedule", {}).get("ns", 0)
    return {
        "traffic.next_slot_ns_per_slot": ns("traffic.next_slot"),
        "traffic.packets_per_slot": switch.packets_accepted / slots,
        "traffic.cells_per_slot": cells / slots,
        "switch.step_ns_per_slot": ns("switch.step"),
        "switch.step_self_ns_per_slot": ns("switch.step", "self_ns"),
        "switch.queue_sizes_ns_per_slot": ns("switch.queue_sizes"),
        "kernel.admit_ns_per_slot": ns("kernel.admit"),
        "kernel.admit_calls_per_slot": calls("kernel.admit"),
        "kernel.commit_ns_per_slot": ns("kernel.commit"),
        "kernel.driver_row_ns_per_slot": ns("kernel.driver_row"),
        "kernel.deliveries_per_slot": (
            switch.cells_delivered / slots if has_kernel else 0.0
        ),
        "scheduler.schedule_ns_per_slot": schedule_ns / slots,
        "scheduler.rounds_per_slot": rounds / slots,
        "scheduler.ns_per_round": schedule_ns / rounds if rounds else 0.0,
        "scheduler.grants_per_round": counts.grants / rounds if rounds else 0.0,
        "fabric.configure_ns_per_slot": ns("fabric.configure"),
        "fabric.release_ns_per_slot": ns("fabric.release"),
        "stats.on_slot_ns_per_slot": ns("stats.on_slot"),
        "engine.run_ns_per_slot": ns("engine.run"),
        "engine.self_ns_per_slot": ns("engine.run", "self_ns"),
        "sanitize.on_slot_ns_per_slot": ns("sanitize.on_slot"),
        # The share of the run spent inside a layer's span. engine.run's
        # own self time is left out: it is the root, so with it the sum
        # of self times is the wall by construction.
        "trace.accounted_pct": 100.0
        * (1.0 - totals["engine.run"]["self_ns"] / traced_wall_ns),
    }
