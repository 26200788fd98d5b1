"""The telemetry bundle handed to the simulation engine.

A :class:`Telemetry` object groups the three observability concerns —
metrics registry, slot tracer, phase profiler — plus an optional progress
reporter. The engine takes ``telemetry=None`` by default and then touches
no telemetry code; with a bundle it adds one :class:`SlotObserver` to the
slot loop's observers and, when profiling, swaps the loop's core calls
for :meth:`~repro.obs.profiler.PhaseProfiler.timed` delegates. Each
component individually degrades to a null object, so
``Telemetry(profile=True)`` profiles without tracing and vice versa.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import NOOP_PROFILER, NoopProfiler, PhaseProfiler
from repro.obs.progress import ProgressReporter
from repro.obs.tracer import (
    NOOP_TRACER,
    NoopTracer,
    SlotTracer,
    build_slot_record,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.sinks import MetricSink
    from repro.packet import Packet
    from repro.switch.base import BaseSwitch, SlotResult

__all__ = ["Telemetry", "SlotObserver", "aggregate_telemetry"]


class Telemetry:
    """Everything the engine needs to observe one run.

    Parameters
    ----------
    registry:
        Metrics registry to record counters into (fresh one by default).
    tracer:
        A :class:`~repro.obs.tracer.SlotTracer` for per-slot JSONL records
        (default: the no-op tracer).
    profile:
        Collect the phase-level wall-clock breakdown.
    progress:
        A :class:`~repro.obs.progress.ProgressReporter` for heartbeat
        lines (default: none).
    sinks:
        :class:`~repro.obs.sinks.MetricSink` receivers of streaming
        registry snapshots (default: none).
    snapshot_every:
        Emit a periodic snapshot to the sinks every N slots (0 = only
        the final snapshot). Ignored when there are no sinks.
    """

    __slots__ = (
        "registry", "tracer", "profiler", "progress", "sinks",
        "snapshot_every",
    )

    def __init__(
        self,
        *,
        registry: MetricsRegistry | None = None,
        tracer: SlotTracer | NoopTracer | None = None,
        profile: bool = False,
        progress: ProgressReporter | None = None,
        sinks: Sequence["MetricSink"] = (),
        snapshot_every: int = 0,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.profiler: PhaseProfiler | NoopProfiler = (
            PhaseProfiler() if profile else NOOP_PROFILER
        )
        self.progress = progress
        self.sinks = tuple(sinks)
        self.snapshot_every = snapshot_every

    # ------------------------------------------------------------------ #
    def to_dict(self, *, slots: int | None = None) -> dict[str, object]:
        """Serializable snapshot: metrics plus (when profiled) the phase
        breakdown. This is what lands in ``SimulationSummary.telemetry``
        and crosses process boundaries."""
        out: dict[str, object] = {"metrics": self.registry.to_dict()}
        if self.profiler.enabled:
            out["profile"] = self.profiler.report(slots)
        return out

    def emit_snapshot(
        self,
        *,
        slot: int | None = None,
        kind: str = "periodic",
        faults: dict | None = None,
        **context: object,
    ) -> None:
        """Push one registry snapshot to every sink.

        No-op without sinks, so callers can emit unconditionally. Extra
        keyword arguments land as top-level context keys in the snapshot
        (e.g. ``algorithm=...``, ``round=...``).
        """
        if not self.sinks:
            return
        snapshot: dict[str, object] = {
            "kind": kind,
            "slot": slot,
            "metrics": self.registry.to_dict(),
        }
        if faults is not None:
            snapshot["faults"] = faults
        snapshot.update(context)
        for sink in self.sinks:
            sink.emit(snapshot)

    def flush(self) -> None:
        """Flush the tracer's stream (end-of-run hook; close stays with
        whoever opened the sink)."""
        self.tracer.flush()

    def close(self) -> None:
        """Close the tracer and the metric sinks (for bundles that own
        their output files)."""
        self.tracer.close()
        for sink in self.sinks:
            sink.close()


class SlotObserver:
    """One run's per-slot telemetry: the ``sim.*`` / ``kernel.*`` registry
    series, the trace record, heartbeats and periodic sink snapshots.

    :meth:`on_slot` has the slot loop's observer signature (the same as
    :meth:`repro.sanitize.SanitizerSuite.on_slot`); :meth:`finish` closes
    the run (final heartbeat, final snapshot, tracer flush).
    """

    def __init__(
        self,
        telemetry: Telemetry,
        switch: "BaseSwitch",
        algorithm: str,
        injector: Any = None,
    ) -> None:
        self.telemetry = telemetry
        self.switch = switch
        self.algorithm = algorithm
        self.injector = injector
        self.tracer = telemetry.tracer
        self.progress = progress = telemetry.progress
        self.heartbeat_every = progress.every if progress is not None else 0
        if progress is not None:
            progress.start()
        self.snapshot_every = (
            telemetry.snapshot_every if telemetry.sinks else 0
        )

        labels = {"algorithm": algorithm}
        registry = telemetry.registry
        self.c_slots = registry.counter("sim.slots", **labels)
        self.c_packets = registry.counter("sim.packets_offered", **labels)
        self.c_offered = registry.counter("sim.cells_offered", **labels)
        self.c_delivered = registry.counter("sim.cells_delivered", **labels)
        self.c_splits = registry.counter("sim.fanout_splits", **labels)
        self.c_reclaimed = registry.counter(
            "sim.buffer_reclamations", **labels
        )
        self.c_dropped = registry.counter("sim.cells_dropped", **labels)
        self.c_lost_grants = registry.counter("sim.grants_lost", **labels)
        self.g_backlog = registry.gauge("sim.backlog", **labels)
        self.h_rounds = registry.histogram("sim.rounds_per_slot", **labels)

        # Kernel-seam counters: backends that implement the
        # harvest_slot_stats() contract (both built-ins do) expose the
        # same keys regardless of representation, so object and
        # vectorized runs emit identical kernel.* series — the
        # reference shadow compares the counters every slot. An
        # empty probe dict means "no kernel seam" (e.g. a third-party
        # switch) and the block is skipped for the whole run.
        harvest = getattr(switch, "harvest_slot_stats", None)
        self.harvest = harvest if harvest is not None and harvest() else None
        if self.harvest is not None:
            self.g_live = registry.gauge("kernel.live_cells", **labels)
            self.g_residue = registry.gauge("kernel.residue_cells", **labels)
            self.g_voq_peak = registry.gauge("kernel.voq_peak", **labels)
            self.g_hol_age = registry.gauge("kernel.hol_age", **labels)
            self.h_residue = registry.histogram(
                "kernel.residue_occupancy", **labels
            )
            self.h_grants = registry.histogram(
                "kernel.grants_per_round", **labels
            )

    def on_slot(
        self,
        slot: int,
        arrivals: "Sequence[Packet | None]",
        result: "SlotResult",
    ) -> None:
        """Record one stepped slot (a zero increment skips its counter)."""
        packets = cells = 0
        for pkt in filter(None, arrivals):
            packets += 1
            cells += len(pkt.destinations)
        backlog = self.switch.total_backlog()
        self.c_slots.inc()
        if packets:
            self.c_packets.inc(packets)
            self.c_offered.inc(cells)
        if result.cells_delivered:
            self.c_delivered.inc(result.cells_delivered)
        if result.splits:
            self.c_splits.inc(result.splits)
        if result.reclaimed:
            self.c_reclaimed.inc(result.reclaimed)
        if result.dropped_packets:
            self.c_dropped.inc(result.cells_dropped)
        if result.grants_lost:
            self.c_lost_grants.inc(result.grants_lost)
        self.g_backlog.set(backlog)
        if result.requests_made:
            self.h_rounds.observe(result.rounds)
        if self.harvest is not None:
            stats = self.harvest()
            residue = stats["residue_cells"]
            self.g_live.set(stats["live_cells"])
            self.g_residue.set(residue)
            self.g_voq_peak.set(stats["voq_peak"])
            self.h_residue.observe(residue)
            oldest = stats["oldest_hol_ts"]
            if oldest is not None:
                self.g_hol_age.set(slot - oldest)
            for grants in result.round_grants:
                self.h_grants.observe(grants)
        if self.tracer.enabled:
            self.tracer.emit(
                build_slot_record(slot, arrivals, result, backlog)
            )
        done = slot + 1
        if self.heartbeat_every and done % self.heartbeat_every == 0:
            self.progress.emit(done, backlog)
        if self.snapshot_every and done % self.snapshot_every == 0:
            self.telemetry.emit_snapshot(
                slot=done,
                kind="periodic",
                algorithm=self.algorithm,
                faults=self._fault_report(),
            )

    def finish(self, slots_run: int, unstable: bool) -> None:
        """Close the run: last heartbeat, final snapshot, tracer flush."""
        if self.progress is not None:
            self.progress.finish(slots_run, self.switch.total_backlog())
        self.telemetry.emit_snapshot(
            slot=slots_run,
            kind="final",
            algorithm=self.algorithm,
            unstable=unstable,
            faults=self._fault_report(),
        )
        self.telemetry.flush()

    def _fault_report(self) -> dict | None:
        return self.injector.report() if self.injector is not None else None


def aggregate_telemetry(summaries) -> MetricsRegistry:
    """Merge the telemetry sections of many summaries into one registry.

    Sweep workers run in separate processes and each returns its own
    registry snapshot inside ``SimulationSummary.telemetry``; this folds
    them associatively (counters add, gauges keep peaks, histograms sum
    buckets). Summaries without a telemetry section are skipped.
    """
    registry = MetricsRegistry()
    for summary in summaries:
        section = getattr(summary, "telemetry", None)
        if section and "metrics" in section:
            registry.merge_dict(section["metrics"])
    return registry
