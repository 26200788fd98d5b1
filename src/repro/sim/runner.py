"""One-call simulation runner.

:func:`run_simulation` builds everything from plain values (algorithm
name, traffic spec dict, seed) so that it can cross a ``multiprocessing``
boundary — the sweep harness submits these plain argument tuples to a
process pool and gets :class:`~repro.stats.summary.SimulationSummary`
records back.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConfigurationError
from repro.obs.telemetry import Telemetry
from repro.schedulers.registry import make_switch
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.stats.summary import SimulationSummary
from repro.traffic.base import TrafficModel
from repro.traffic.bernoulli import BernoulliMulticastTraffic
from repro.traffic.burst import BurstMulticastTraffic
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.mixed import MixedTraffic
from repro.traffic.uniform import UniformFanoutTraffic
from repro.utils.rng import RngStreams

__all__ = ["run_simulation", "build_traffic", "TRAFFIC_MODELS"]

TRAFFIC_MODELS: dict[str, type[TrafficModel]] = {
    "bernoulli": BernoulliMulticastTraffic,
    "uniform": UniformFanoutTraffic,
    "burst": BurstMulticastTraffic,
    "mixed": MixedTraffic,
    "hotspot": HotspotTraffic,
}


def build_traffic(
    spec: dict[str, Any], num_ports: int, rng: object = None
) -> TrafficModel:
    """Instantiate a traffic model from a plain spec dict.

    The spec has a ``model`` key naming one of :data:`TRAFFIC_MODELS`;
    every other key is forwarded as a constructor keyword. An optional
    ``class_shares`` key wraps the model in a
    :class:`~repro.qos.traffic.PriorityTagger` with those shares.
    """
    spec = dict(spec)
    try:
        name = spec.pop("model")
    except KeyError:
        raise ConfigurationError("traffic spec needs a 'model' key") from None
    class_shares = spec.pop("class_shares", None)
    try:
        cls = TRAFFIC_MODELS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown traffic model {name!r}; one of {sorted(TRAFFIC_MODELS)}"
        ) from None
    model: TrafficModel = cls(num_ports, rng=rng, **spec)
    if class_shares is not None:
        from repro.qos.traffic import PriorityTagger

        model = PriorityTagger(model, class_shares, rng=rng)
    return model


def run_simulation(
    algorithm: str,
    num_ports: int,
    traffic_spec: dict[str, Any],
    *,
    num_slots: int = 100_000,
    warmup_fraction: float = 0.5,
    slot_chunk: int = 1,
    seed: int | None = 0,
    config: SimulationConfig | None = None,
    extended_stats: bool = False,
    telemetry: Telemetry | None = None,
    collect_telemetry: bool = False,
    faults: object | None = None,
    backend: str | None = None,
    sanitize: object | None = None,
    **switch_kwargs: Any,
) -> SimulationSummary:
    """Build switch + traffic + engine from plain values and run.

    Parameters mirror the registry/traffic specs; ``config`` overrides the
    (num_slots, warmup_fraction, slot_chunk) shorthand when given. Determinism: the
    ``seed`` spawns two independent named streams, one for the traffic
    model and one for scheduler tie-breaking; fault models draw from
    their own ``faults.*`` streams off the same root seed.

    Fault injection: ``faults`` accepts a scenario name from
    :data:`repro.faults.FAULT_SCENARIOS`, a JSON-friendly spec dict, or a
    prebuilt :class:`~repro.faults.FaultInjector` (which must match
    ``num_ports`` and is used as-is).

    Observability: pass a preconfigured ``telemetry`` bundle (tracing,
    progress, …), or set ``collect_telemetry=True`` to build a default
    metrics+profile bundle in-process — the plain-values form a sweep
    worker can request across a ``multiprocessing`` boundary; the
    resulting snapshot rides home in ``SimulationSummary.telemetry``.

    Kernel backend: the explicit ``backend`` argument wins, then a
    ``backend`` key in ``switch_kwargs``; left unset in both, the
    pairing builds its fast body (``"vectorized"`` for fifoms,
    fifoms-prio, greedy-mcast; ``"object"`` for fifoms with
    ``fanout_splitting=False``). Both multicast VOQ kernels produce
    bit-identical summaries (``repro.kernel.equivalence`` enforces
    this); for a single-bodied pairing (iSLIP, TATRA, OQFIFO, …) a name
    is accepted and selects nothing.

    Sanitizing: ``sanitize`` forwards to the engine — ``True`` / a
    prebuilt :class:`~repro.sanitize.SanitizerSuite` enables the runtime
    sanitizer tier, ``False`` forces it off, and the default ``None``
    defers to ``$REPRO_SANITIZE`` (see :mod:`repro.sanitize`).
    """
    if telemetry is None and collect_telemetry:
        telemetry = Telemetry(profile=True)
    streams = RngStreams(seed)
    traffic = build_traffic(traffic_spec, num_ports, rng=streams.get("traffic"))
    cfg = config or SimulationConfig(
        num_slots=num_slots,
        warmup_fraction=warmup_fraction,
        # Scale the divergence-detector window with the run so short
        # benchmark runs can still flag saturated points (8 growing
        # windows = ~8% of the run spent strictly climbing).
        stability_window=max(100, num_slots // 100),
        extended_stats=extended_stats,
        slot_chunk=slot_chunk,
    )
    if backend is None:
        backend = switch_kwargs.pop("backend", None)
    switch = make_switch(
        algorithm,
        num_ports,
        rng=streams.get("scheduler"),
        backend=backend,
        **switch_kwargs,
    )
    injector = None
    if faults is not None:
        from repro.faults.injector import FaultInjector
        from repro.faults.scenarios import build_fault_injector

        if isinstance(faults, FaultInjector):
            injector = faults
        else:
            injector = build_fault_injector(
                faults,
                num_ports=num_ports,
                num_slots=cfg.num_slots,
                rng=streams,
            )
    engine = SimulationEngine(
        switch, traffic, cfg, seed=seed, algorithm_name=algorithm,
        telemetry=telemetry, faults=injector, sanitize=sanitize,
    )
    return engine.run()
