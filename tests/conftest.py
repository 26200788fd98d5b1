"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest

from repro.core.voq import MulticastVOQInputPort
from repro.packet import Packet
from repro.schedulers.base import SIQHolView
from repro.traffic.trace import TraceTraffic

__all__ = ["make_packet", "mk_ports", "drain_slots", "siq_cell", "siq_view"]


def make_packet(
    input_port: int, destinations, arrival_slot: int = 0
) -> Packet:
    """Terse Packet constructor for hand-written scenarios."""
    return Packet(
        input_port=input_port,
        destinations=tuple(destinations),
        arrival_slot=arrival_slot,
    )


def mk_ports(n: int) -> list[MulticastVOQInputPort]:
    """A row of n fresh multicast VOQ input ports for an n-output switch."""
    return [MulticastVOQInputPort(i, n) for i in range(n)]


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
