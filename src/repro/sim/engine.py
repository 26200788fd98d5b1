"""The slot loop: traffic → switch → statistics, with stability watch.

This engine drives any :class:`~repro.switch.base.BaseSwitch` with any
:class:`~repro.traffic.base.TrafficModel` and produces a
:class:`~repro.stats.summary.SimulationSummary`. It is deliberately dumb —
all behaviour lives in the switch/scheduler/traffic objects — so that one
loop serves every algorithm, every experiment and every mode identically.

There is exactly one loop, in :meth:`SimulationEngine.run`. Per slot it
does ``injector.advance`` (fault runs) → ``switch.step`` →
``collector.on_slot`` → the run's observers → the invariant check on its
cadence; the stability monitor is fed at every window boundary.
``slot_chunk`` only sets how many arrival vectors are drawn ahead of the
slots that consume them (same ``traffic.next_slot()`` call order, and
traffic and ``faults.*`` are independent named RNG streams), so it
composes with every mode and never changes a result.

Observers are built once per run from what is present, each a callable
``(slot, arrivals, result)``:

* ``sanitize=True`` / ``REPRO_SANITIZE=1`` adds
  :meth:`repro.sanitize.SanitizerSuite.on_slot` — conservation, matching
  validity, FIFO order and the kernel seam on every slot.
* ``telemetry=`` adds :meth:`repro.obs.telemetry.SlotObserver.on_slot` —
  the metrics registry, one JSONL trace record per slot when tracing,
  heartbeats, periodic sink snapshots. With profiling on, the loop's core
  calls are swapped for timed delegates that attribute wall-clock to the
  four phases.

With neither, the list is empty and no telemetry or sanitizer code is
touched; behavioural guard tests pin that.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigurationError, SimulationError, UnstableSimulationError
from repro.obs.telemetry import SlotObserver, Telemetry
from repro.sanitize import SanitizerSuite, resolve_sanitizer
from repro.sim.config import SimulationConfig
from repro.sim.stability import StabilityMonitor
from repro.stats.collector import StatsCollector
from repro.stats.summary import SimulationSummary
from repro.switch.base import BaseSwitch
from repro.traffic.base import TrafficModel

__all__ = ["SimulationEngine"]


class SimulationEngine:
    """Couples one switch, one traffic model and one config."""

    def __init__(
        self,
        switch: BaseSwitch,
        traffic: TrafficModel,
        config: SimulationConfig | None = None,
        *,
        seed: int | None = None,
        algorithm_name: str | None = None,
        telemetry: Telemetry | None = None,
        faults: object | None = None,
        sanitize: SanitizerSuite | bool | None = None,
    ) -> None:
        if switch.num_ports != traffic.num_ports:
            raise SimulationError(
                f"switch has {switch.num_ports} ports but traffic targets "
                f"{traffic.num_ports}"
            )
        if faults is not None:
            if not hasattr(switch, "fault_injector"):
                raise ConfigurationError(
                    f"{type(switch).__name__} does not support fault "
                    "injection (no fault_injector attribute)"
                )
            switch.fault_injector = faults
        #: The active fault injector, whether passed here or already
        #: attached to the switch; None for healthy runs.
        self.faults = (
            faults
            if faults is not None
            else getattr(switch, "fault_injector", None)
        )
        self.switch = switch
        self.traffic = traffic
        self.config = config or SimulationConfig()
        self.seed = seed
        self.algorithm_name = algorithm_name or getattr(switch, "name", "unknown")
        #: Kernel backend the switch is running on ("object" for switches
        #: without a backend seam). Introspection only — deliberately kept
        #: out of the summary so backend-equivalence comparisons stay
        #: bit-identical.
        self.backend = getattr(switch, "backend", "object")
        self.telemetry = telemetry
        #: Runtime sanitizer suite, or None. ``sanitize=None`` (default)
        #: consults ``$REPRO_SANITIZE`` so an entire test suite can run
        #: sanitized without touching call sites; False forces it off.
        self.sanitizer = resolve_sanitizer(sanitize)
        self.collector = StatsCollector(
            switch.num_ports,
            self.config.warmup_slots,
            extended=self.config.extended_stats,
        )
        self.monitor = StabilityMonitor(
            max_backlog=self.config.max_backlog,
            growth_windows=self.config.stability_growth_windows,
        )
        self.slots_run = 0

    # ------------------------------------------------------------------ #
    def run(self) -> SimulationSummary:
        """Execute the configured number of slots (or stop at instability)."""
        cfg = self.config
        switch = self.switch
        collector = self.collector
        injector = self.faults
        sanitizer = self.sanitizer
        telemetry = self.telemetry
        # Resolved here, not in __init__: callers may shadow these methods
        # on the instances between construction and run().
        next_slot = self.traffic.next_slot
        step = switch.step
        queue_sizes = switch.queue_sizes
        on_slot = collector.on_slot
        check_invariants = switch.check_invariants
        observe_stability = self._observe_stability

        observers = []
        if sanitizer is not None:
            sanitizer.attach(
                switch,
                traffic=self.traffic,
                injector=injector,
                algorithm=self.algorithm_name,
            )
            observers.append(sanitizer.on_slot)
        slot_telemetry = None
        if telemetry is not None:
            slot_telemetry = SlotObserver(
                telemetry, switch, self.algorithm_name, injector
            )
            observers.append(slot_telemetry.on_slot)
            if telemetry.profiler.enabled:
                timed = telemetry.profiler.timed
                next_slot = timed("traffic_gen", next_slot)
                step = timed("schedule", step)
                queue_sizes = timed("stats", queue_sizes)
                on_slot = timed("stats", on_slot)
                check_invariants = timed("invariants", check_invariants)
                observe_stability = timed("invariants", observe_stability)

        total = cfg.num_slots
        chunk = cfg.slot_chunk
        window = cfg.stability_window
        check_every = cfg.check_invariants_every
        unstable = False
        ahead: deque = deque()  # arrival vectors drawn but not yet stepped
        for slot in range(total):
            if not ahead:
                # Draw up to slot_chunk vectors, never past a stability-
                # window boundary: a run that stops there must not have
                # drawn arrivals for slots it never steps. (Comparisons,
                # not min(): at the default slot_chunk=1 this is per slot.)
                stop = slot + chunk
                if stop > total:
                    stop = total
                if window:
                    boundary = slot - slot % window + window
                    if stop > boundary:
                        stop = boundary
                for _ in range(slot, stop):
                    ahead.append(next_slot())
            arrivals = ahead.popleft()
            if injector is not None:
                injector.advance(slot)
            result = step(arrivals, slot)
            on_slot(slot, arrivals, result, queue_sizes())
            for observe in observers:
                observe(slot, arrivals, result)
            self.slots_run = done = slot + 1
            if check_every and done % check_every == 0:
                check_invariants()
            if window and done % window == 0:
                if observe_stability(injector, switch.total_backlog()):
                    unstable = True
                    break
        if slot_telemetry is not None:
            slot_telemetry.finish(self.slots_run, unstable)

        # Final conservation audit: everything offered is either delivered
        # or still buffered; the stats and the switch must agree.
        backlog = switch.total_backlog()
        pending = collector.delay.pending_cells()
        if pending != backlog:
            raise SimulationError(
                f"conservation violated: stats see {pending} pending cells, "
                f"switch reports backlog {backlog}"
            )
        # A sanitized run fails here (after the full violation list is
        # recorded) rather than reporting success — hard-fail mode has
        # already raised mid-loop at the first violation instead.
        if sanitizer is not None:
            sanitizer.finish()
        if unstable and cfg.raise_on_unstable:
            raise UnstableSimulationError(
                f"{self.algorithm_name}: {self.monitor.reason} "
                f"after {self.slots_run} slots"
            )
        return self._summarize(unstable)

    def _observe_stability(self, injector: object | None, backlog: int) -> bool:
        """Feed the stability monitor, fault-aware.

        While an injected port outage or crosspoint failure is active the
        backlog ramps by design; the trend detector would misread that as
        saturation and cut the run short, so degraded windows go through
        :meth:`~repro.sim.stability.StabilityMonitor.observe_degraded`
        (hard ceiling only) instead.
        """
        if injector is not None and injector.current.degraded:
            return self.monitor.observe_degraded(backlog)
        return self.monitor.observe(backlog)

    # ------------------------------------------------------------------ #
    def _summarize(self, unstable: bool) -> SimulationSummary:
        c = self.collector
        traffic_desc: dict[str, object] = {
            "model": type(self.traffic).__name__,
            "effective_load": self.traffic.effective_load,
            "average_fanout": self.traffic.average_fanout,
        }
        telemetry_section = (
            self.telemetry.to_dict(slots=self.slots_run)
            if self.telemetry is not None
            else None
        )
        return SimulationSummary(
            algorithm=self.algorithm_name,
            num_ports=self.switch.num_ports,
            seed=self.seed,
            slots_run=self.slots_run,
            warmup_slots=self.config.warmup_slots,
            average_input_delay=c.delay.average_input_delay,
            average_output_delay=c.delay.average_output_delay,
            average_queue_size=c.occupancy.average_queue_size,
            max_queue_size=c.occupancy.max_queue_size,
            average_rounds=c.convergence.average_rounds,
            max_rounds=c.convergence.max_rounds,
            offered_load=c.throughput.offered_load,
            carried_load=c.throughput.carried_load,
            delivery_ratio=c.throughput.delivery_ratio,
            packets_offered=c.throughput.packets_offered,
            cells_offered=c.throughput.cells_offered,
            cells_delivered=c.throughput.cells_delivered,
            final_backlog=self.switch.total_backlog(),
            unstable=unstable,
            cells_dropped=c.cells_dropped,
            packets_dropped=c.packets_dropped,
            grants_lost=c.grants_lost,
            faults=(
                self.faults.report() if self.faults is not None else None
            ),
            traffic=traffic_desc,
            extra=c.extended_metrics(),
            telemetry=telemetry_section,
        )
