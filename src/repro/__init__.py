"""repro — a reproduction of Pan & Yang, "FIFO Based Multicast Scheduling
Algorithm for VOQ Packet Switches" (ICPP 2004).

The package implements the paper's multicast VOQ queue structure (data
cells + address cells; the literal model is :mod:`repro.verify.reference`)
and the FIFOMS scheduler, the baselines it is
evaluated against (TATRA, iSLIP, OQFIFO, plus PIM/ESLIP/MaxWeight
extensions), the three traffic models of the evaluation, a discrete
time-slot simulation engine with the paper's metrics, and an experiment
harness that regenerates every figure of Section V.

Quickstart::

    from repro import run_simulation

    summary = run_simulation(
        "fifoms", 16,
        {"model": "bernoulli", "p": 0.2, "b": 0.2},
        num_slots=50_000, seed=1,
    )
    print(summary.average_output_delay, summary.max_queue_size)
"""

from repro._version import __version__
from repro.packet import Delivery, Packet
from repro.core import (
    FIFOMSScheduler,
    GrantSet,
    ScheduleDecision,
    TieBreak,
)
from repro.fabric import MulticastCrossbar
from repro.switch import (
    BaseSwitch,
    MulticastVOQSwitch,
    OutputQueuedSwitch,
    SingleInputQueueSwitch,
    SlotResult,
    UnicastVOQSwitch,
)
from repro.schedulers import (
    GreedyMcastScheduler,
    ISLIPScheduler,
    MaxWeightScheduler,
    PIMScheduler,
    SIQFifoScheduler,
    TATRAScheduler,
    available_schedulers,
    make_switch,
    register_switch_factory,
)
from repro.traffic import (
    BernoulliMulticastTraffic,
    BurstMulticastTraffic,
    HotspotTraffic,
    MixedTraffic,
    TraceTraffic,
    TrafficModel,
    UniformFanoutTraffic,
)
from repro.sim import (
    SimulationConfig,
    SimulationEngine,
    StabilityMonitor,
    run_simulation,
)
from repro.stats import (
    DelayHistogram,
    MulticastServiceTracker,
    SimulationSummary,
    StatsCollector,
)
from repro.obs import (
    CallbackSink,
    Counter,
    Gauge,
    Histogram,
    InMemorySink,
    JsonlSink,
    MetricSink,
    MetricsRegistry,
    NoopTracer,
    PhaseProfiler,
    ProgressReporter,
    SlotTracer,
    Telemetry,
    aggregate_telemetry,
)
from repro.kernel import (
    KernelBackend,
    ReferenceBackend,
    SwitchState,
    VectorizedBackend,
    available_backends,
    make_backend,
    register_backend,
)
from repro.switch.cioq import CIOQSwitch
from repro.faults import (
    CellDropModel,
    CrosspointFailure,
    CrosspointOutage,
    FaultInjector,
    GrantLossModel,
    LinkDownSchedule,
    PortOutage,
    SlotFaultState,
    available_fault_scenarios,
    build_fault_injector,
)
from repro.verify import exhaustive_verify

__all__ = [
    "__version__",
    # packets
    "Packet",
    "Delivery",
    # core (the paper's contribution)
    "FIFOMSScheduler",
    "TieBreak",
    "GrantSet",
    "ScheduleDecision",
    # fabric & switches
    "MulticastCrossbar",
    "BaseSwitch",
    "SlotResult",
    "MulticastVOQSwitch",
    "UnicastVOQSwitch",
    "SingleInputQueueSwitch",
    "OutputQueuedSwitch",
    # schedulers
    "ISLIPScheduler",
    "PIMScheduler",
    "MaxWeightScheduler",
    "TATRAScheduler",
    "SIQFifoScheduler",
    "GreedyMcastScheduler",
    "available_schedulers",
    "make_switch",
    "register_switch_factory",
    # traffic
    "TrafficModel",
    "BernoulliMulticastTraffic",
    "UniformFanoutTraffic",
    "BurstMulticastTraffic",
    "MixedTraffic",
    "HotspotTraffic",
    "TraceTraffic",
    # simulation
    "SimulationConfig",
    "SimulationEngine",
    "StabilityMonitor",
    "run_simulation",
    "SimulationSummary",
    "StatsCollector",
    "DelayHistogram",
    "MulticastServiceTracker",
    # observability
    "Telemetry",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "SlotTracer",
    "NoopTracer",
    "PhaseProfiler",
    "ProgressReporter",
    "aggregate_telemetry",
    "MetricSink",
    "InMemorySink",
    "CallbackSink",
    "JsonlSink",
    # kernel backends
    "KernelBackend",
    "SwitchState",
    "ReferenceBackend",
    "VectorizedBackend",
    "available_backends",
    "make_backend",
    "register_backend",
    # extensions
    "CIOQSwitch",
    # fault injection
    "FaultInjector",
    "SlotFaultState",
    "PortOutage",
    "LinkDownSchedule",
    "CrosspointOutage",
    "CrosspointFailure",
    "GrantLossModel",
    "CellDropModel",
    "available_fault_scenarios",
    "build_fault_injector",
    "exhaustive_verify",
]
