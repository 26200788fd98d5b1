"""Named fault scenarios and the spec-to-injector builder.

A *scenario spec* is a plain dict (JSON-friendly, picklable across sweep
workers) with any of four keys::

    {
        "link_down":   [{"port": 0, "kind": "output",
                         "start": 0.4, "end": 0.6}, ...],
        "crosspoints": [{"input": 0, "output": 0,
                         "start": 0, "end": None}, ...],
        "grant_loss":  {"probability": 0.05, "start": 0, "end": None},
        "cell_drop":   {"probability": 0.02, "input_ports": [0, 1]},
    }

``start`` / ``end`` accept absolute slot numbers (ints) or fractions of
the run in ``(0, 1]`` (floats) — fractions let one scenario scale from a
4k-slot smoke test to the paper's 10^6-slot runs without editing.

The catalog (:data:`FAULT_SCENARIOS`) maps short CLI names to builders
parameterized by switch size, so ``repro-sim run --faults output-outage``
works for any N.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from numbers import Integral, Real
from typing import Any

from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.models import (
    CellDropModel,
    CrosspointFailure,
    CrosspointOutage,
    GrantLossModel,
    LinkDownSchedule,
    PortOutage,
)
from repro.utils.rng import RngStreams

__all__ = [
    "FAULT_SCENARIOS",
    "available_fault_scenarios",
    "scenario_spec",
    "build_fault_injector",
]


def _resolve_slot(value: Any, num_slots: int, what: str) -> int | None:
    """Turn an absolute slot or a run fraction into an absolute slot."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{what}: expected slot or fraction, got {value!r}")
    if isinstance(value, float):
        if not 0.0 <= value <= 1.0:
            raise ConfigurationError(
                f"{what}: fractional slot must be in [0, 1], got {value}"
            )
        return int(round(value * num_slots))
    if value < 0:
        raise ConfigurationError(f"{what}: slot must be >= 0, got {value}")
    return value


def _entries(section: Any, what: str) -> Sequence[dict[str, Any]]:
    """A spec section that must be a list of objects."""
    if not isinstance(section, (list, tuple)) or not all(
        isinstance(e, dict) for e in section
    ):
        raise ConfigurationError(f"{what}: expected a list of objects, got {section!r}")
    return section


def _model(section: Any, what: str) -> dict[str, Any]:
    """A spec section that must be one object."""
    if not isinstance(section, dict):
        raise ConfigurationError(f"{what}: expected an object, got {section!r}")
    return section


def _field(entry: dict[str, Any], key: str, what: str) -> Any:
    try:
        return entry[key]
    except KeyError:
        raise ConfigurationError(f"{what}: missing {key!r}") from None


def _port(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigurationError(f"{what}: expected a port index, got {value!r}")
    return int(value)


def _probability(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigurationError(f"{what}: expected a probability, got {value!r}")
    return float(value)


def _window(entry: dict[str, Any], num_slots: int, what: str) -> dict[str, Any]:
    """The ``start`` / ``end`` keywords of one windowed model."""
    return {
        "start": _resolve_slot(entry.get("start", 0), num_slots, f"{what} start") or 0,
        "end": _resolve_slot(entry.get("end"), num_slots, f"{what} end"),
    }


def _build_link_down(section: Any, num_slots: int) -> LinkDownSchedule:
    """Materialize the ``link_down`` section of a spec."""
    return LinkDownSchedule([
        PortOutage(
            port=_port(_field(entry, "port", "outage"), "outage port"),
            kind=str(entry.get("kind", "output")),
            **_window(entry, num_slots, "outage"),
        )
        for entry in _entries(section, "link_down")
    ])


def _build_crosspoints(section: Any, num_slots: int) -> CrosspointFailure:
    """Materialize the ``crosspoints`` section of a spec."""
    return CrosspointFailure([
        CrosspointOutage(
            input_port=_port(_field(entry, "input", "crosspoint"), "crosspoint input"),
            output_port=_port(
                _field(entry, "output", "crosspoint"), "crosspoint output"
            ),
            **_window(entry, num_slots, "crosspoint"),
        )
        for entry in _entries(section, "crosspoints")
    ])


def _build_grant_loss(section: Any, num_slots: int) -> GrantLossModel:
    """Materialize the ``grant_loss`` section of a spec."""
    gl = _model(section, "grant_loss")
    return GrantLossModel(
        probability=_probability(
            _field(gl, "probability", "grant loss"), "grant loss probability"
        ),
        **_window(gl, num_slots, "grant loss"),
    )


def _build_cell_drop(section: Any, num_slots: int) -> CellDropModel:
    """Materialize the ``cell_drop`` section of a spec."""
    cd = _model(section, "cell_drop")
    ports = cd.get("input_ports")
    if ports is not None and (not isinstance(ports, (list, tuple)) or not ports):
        raise ConfigurationError(
            f"cell drop input_ports: expected a non-empty list, got {ports!r}"
        )
    return CellDropModel(
        probability=_probability(
            _field(cd, "probability", "cell drop"), "cell drop probability"
        ),
        input_ports=(
            None if ports is None
            else tuple(_port(p, "cell drop input port") for p in ports)
        ),
        **_window(cd, num_slots, "cell drop"),
    )


def build_fault_injector(
    spec: str | dict[str, Any],
    *,
    num_ports: int,
    num_slots: int,
    rng: RngStreams | int | None = None,
) -> FaultInjector:
    """Build a :class:`FaultInjector` from a scenario name or spec dict.

    ``rng`` should be the run's :class:`~repro.utils.rng.RngStreams` so
    the injector's named streams descend from the same root seed as
    traffic and scheduler randomness. A spec that is not well formed
    (a missing field, a value of the wrong type, a port outside the
    switch) raises :class:`~repro.errors.ConfigurationError`.
    """
    if isinstance(spec, str):
        spec = scenario_spec(spec, num_ports)
    if not isinstance(spec, dict):
        raise ConfigurationError(
            f"fault spec must be a scenario name or dict, got {type(spec).__name__}"
        )
    builders = {
        "link_down": _build_link_down,
        "crosspoints": _build_crosspoints,
        "grant_loss": _build_grant_loss,
        "cell_drop": _build_cell_drop,
    }
    unknown = set(spec) - set(builders)
    if unknown:
        raise ConfigurationError(
            f"unknown fault spec keys {sorted(map(str, unknown))}; known: "
            "link_down, crosspoints, grant_loss, cell_drop"
        )
    models = {
        key: build(spec[key], num_slots)
        for key, build in builders.items()
        if spec.get(key)
    }
    if not models:
        raise ConfigurationError("fault spec enables no fault model")
    return FaultInjector(num_ports, rng=rng, **models)


# --------------------------------------------------------------------- #
# Catalog
# --------------------------------------------------------------------- #
def _output_outage(num_ports: int) -> dict[str, Any]:
    """Output 0 down for the middle fifth of the run."""
    return {"link_down": [{"port": 0, "kind": "output", "start": 0.4, "end": 0.6}]}


def _dual_output_outage(num_ports: int) -> dict[str, Any]:
    """Two staggered output outages overlapping mid-run."""
    second = 1 % num_ports
    return {
        "link_down": [
            {"port": 0, "kind": "output", "start": 0.3, "end": 0.55},
            {"port": second, "kind": "output", "start": 0.45, "end": 0.7},
        ]
    }


def _input_outage(num_ports: int) -> dict[str, Any]:
    """Input 0 down (arrivals lost, no requests) mid-run."""
    return {"link_down": [{"port": 0, "kind": "input", "start": 0.4, "end": 0.6}]}


def _flaky_crosspoint(num_ports: int) -> dict[str, Any]:
    """One crosspoint dead all run, another failing over a window."""
    spec: dict[str, Any] = {
        "crosspoints": [{"input": 0, "output": 0, "start": 0, "end": None}]
    }
    if num_ports > 1:
        spec["crosspoints"].append(
            {"input": 1, "output": num_ports - 1, "start": 0.3, "end": 0.7}
        )
    return spec


def _grant_glitch(num_ports: int) -> dict[str, Any]:
    """5% of scheduled branches corrupted, whole run."""
    return {"grant_loss": {"probability": 0.05}}


def _lossy_ingress(num_ports: int) -> dict[str, Any]:
    """2% Bernoulli packet loss at every input, whole run."""
    return {"cell_drop": {"probability": 0.02}}


def _chaos(num_ports: int) -> dict[str, Any]:
    """Everything at once: outage + crosspoint + grant loss + ingress loss."""
    return {
        "link_down": [{"port": 0, "kind": "output", "start": 0.4, "end": 0.6}],
        "crosspoints": [
            {"input": num_ports - 1, "output": num_ports - 1, "start": 0.2, "end": 0.8}
        ],
        "grant_loss": {"probability": 0.02},
        "cell_drop": {"probability": 0.01},
    }


#: name -> (one-line description, builder(num_ports) -> spec dict).
FAULT_SCENARIOS: dict[str, tuple[str, Callable[[int], dict[str, Any]]]] = {
    "output-outage": (
        "output 0 down for the middle fifth of the run",
        _output_outage,
    ),
    "dual-output-outage": (
        "two staggered, overlapping output outages",
        _dual_output_outage,
    ),
    "input-outage": (
        "input 0 down mid-run; its arrivals are lost",
        _input_outage,
    ),
    "flaky-crosspoint": (
        "crosspoint (0,0) dead all run; (1,N-1) fails over a window",
        _flaky_crosspoint,
    ),
    "grant-glitch": (
        "5% of scheduled branches corrupted (retried later)",
        _grant_glitch,
    ),
    "lossy-ingress": (
        "2% Bernoulli arrival loss at every input",
        _lossy_ingress,
    ),
    "chaos": (
        "outage + crosspoint failure + grant loss + ingress loss",
        _chaos,
    ),
}


def available_fault_scenarios() -> tuple[str, ...]:
    """Sorted names of the built-in fault scenarios."""
    return tuple(sorted(FAULT_SCENARIOS))


def scenario_spec(name: str, num_ports: int) -> dict[str, Any]:
    """The spec dict a named scenario expands to for an N-port switch."""
    try:
        _desc, builder = FAULT_SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown fault scenario {name!r}; one of {sorted(FAULT_SCENARIOS)}"
        ) from None
    return builder(num_ports)
