"""repro.obs — observability for the simulator.

Three independent concerns behind one :class:`Telemetry` bundle:

* :mod:`repro.obs.metrics` — Counter/Gauge/Histogram primitives and the
  labeled :class:`MetricsRegistry` (JSON export, cross-process merge).
* :mod:`repro.obs.tracer` — per-slot JSONL event tracing with a
  zero-cost :class:`NoopTracer` disabled path.
* :mod:`repro.obs.profiler` — phase-level wall-clock attribution
  (traffic_gen / schedule / stats / invariants).
* :mod:`repro.obs.sinks` — streaming :class:`MetricSink` receivers
  (in-memory, JSONL-with-rotation, callback) for observing runs
  mid-flight via periodic registry snapshots.

Plus :class:`ProgressReporter`, the heartbeat printer behind the CLI's
``--progress`` flag.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_global_registry,
    reset_global_registry,
)
from repro.obs.profiler import (
    NOOP_PROFILER,
    PHASES,
    NoopProfiler,
    PhaseProfiler,
    clock_ns,
)
from repro.obs.progress import ProgressReporter
from repro.obs.sinks import CallbackSink, InMemorySink, JsonlSink, MetricSink
from repro.obs.telemetry import Telemetry, aggregate_telemetry
from repro.obs.tracer import (
    NOOP_TRACER,
    NoopTracer,
    SlotTracer,
    build_slot_record,
    read_trace_records,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_global_registry",
    "reset_global_registry",
    "PHASES",
    "PhaseProfiler",
    "NoopProfiler",
    "NOOP_PROFILER",
    "clock_ns",
    "ProgressReporter",
    "MetricSink",
    "InMemorySink",
    "CallbackSink",
    "JsonlSink",
    "SlotTracer",
    "NoopTracer",
    "NOOP_TRACER",
    "build_slot_record",
    "read_trace_records",
    "Telemetry",
    "aggregate_telemetry",
]
