"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.experiments.sweep import FigureResult
from repro.kernel import make_backend
from repro.packet import Packet
from repro.schedulers.base import SIQHolView
from repro.switch.base import SlotResult
from repro.traffic.trace import TraceTraffic

__all__ = [
    "make_packet",
    "KERNELS",
    "loaded_kernels",
    "drain_slots",
    "siq_cell",
    "siq_view",
    "slot_result",
    "stub_result",
    "traces",
]


def make_packet(
    input_port: int, destinations, arrival_slot: int = 0
) -> Packet:
    """Terse Packet constructor for hand-written scenarios."""
    return Packet(
        input_port=input_port,
        destinations=tuple(destinations),
        arrival_slot=arrival_slot,
    )


def slot_result(slot: int, *rows: tuple[Packet, int]) -> SlotResult:
    """A :class:`SlotResult` stamped ``slot`` serving ``rows``, each one
    ``(packet, output_mask)`` grant, with its delivered-cell count."""
    return SlotResult(
        slot=slot,
        rows=list(rows),
        cells_delivered=sum(mask.bit_count() for _, mask in rows),
    )


#: The two multicast VOQ kernels a hand-checked FIFOMS or greedy-mcast
#: decision is asserted on: production (``SwitchState`` driven through
#: ``schedule_state``) and the reference model of repro.verify.reference.
KERNELS = ("vectorized", "object")


def loaded_kernels(n: int, *loads: tuple[int, tuple[int, ...], int]) -> list:
    """Both kernels (:data:`KERNELS` order) at ``n`` ports, each holding
    the same ``(input, destinations, timestamp)`` arrivals."""
    kernels = [make_backend(name, n) for name in KERNELS]
    for i, dests, ts in loads:
        for kernel in kernels:
            assert kernel.admit(Packet(i, tuple(dests), ts), ts)
    return kernels


class SIQCell(NamedTuple):
    """One hand-written single-input-queue HOL cell."""

    input_port: int
    residue_bits: int
    arrival_slot: int
    packet_id: int


def siq_cell(i: int, remaining, arrival: int, pid: int | None = None) -> SIQCell:
    """HOL cell of input ``i`` with ``remaining`` outputs still to serve."""
    bits = sum(1 << j for j in remaining)
    return SIQCell(i, bits, arrival, pid if pid is not None else 1000 + i)


def siq_view(slot: int, *cells: SIQCell) -> SIQHolView:
    """The view a single-input-queue switch would hand its scheduler."""
    cells = sorted(cells)
    return SIQHolView(
        current_slot=slot,
        inputs=[c.input_port for c in cells],
        residue_bits=[c.residue_bits for c in cells],
        arrivals=[c.arrival_slot for c in cells],
        packet_ids=[c.packet_id for c in cells],
    )


class StubPoint:
    """A completed point whose every metric reads ``value`` and whose
    max_rounds is 1; each read adds ``key`` to ``reads``."""

    def __init__(self, key, reads, unstable=False, value=1.0):
        self._key, self._reads = key, reads
        self._unstable, self._value = unstable, value

    @property
    def unstable(self):
        self._reads.add(self._key)
        return self._unstable

    @property
    def max_rounds(self):
        self._reads.add(self._key)
        return 1

    def metric(self, name):
        self._reads.add(self._key)
        return self._value


def stub_result(spec, *, without=None, drop=(), reads=None, **points):
    """Every point completed and stable with metrics 1.0, except the
    algorithm ``without``, the (algorithm, load) points in ``drop`` and
    the ``points`` overrides, keyed "alg@load"."""
    reads = set() if reads is None else reads
    summaries = {}
    for a in spec.algorithms:
        for load in spec.loads:
            if a != without and (a, load) not in drop:
                kw = points.get(f"{a}@{load}", {})
                summaries[(a, load)] = StubPoint((a, load), reads, **kw)
    return FigureResult(spec, spec.loads, spec.algorithms, summaries)


@st.composite
def traces(draw):
    """``(num_ports, horizon, trace)`` for
    :func:`repro.verify.exhaustive.check_trace`: up to one arrival per
    input and slot, each a ``(slot, input, dests)`` tuple."""
    n = draw(st.integers(min_value=2, max_value=6))
    horizon = draw(st.integers(min_value=1, max_value=15))
    ports = st.integers(min_value=0, max_value=n - 1)
    trace = tuple(
        (slot, i, tuple(sorted(draw(st.sets(ports, min_size=1)))))
        for slot in range(horizon)
        for i in range(n)
        if draw(st.booleans())
    )
    return n, horizon, trace


def drain_slots(packets, num_ports: int, extra: int = 0) -> int:
    """Slots needed to feed a trace plus drain every cell serially."""
    horizon = 1 + max((p.arrival_slot for p in packets), default=-1)
    cells = sum(p.fanout for p in packets)
    return horizon + cells + extra


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def trace_cls():
    return TraceTraffic
