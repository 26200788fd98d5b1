"""The per-input data-cell buffer: the reference model's live cells and
capacity, and the production ``SwitchState`` ledgers."""

from __future__ import annotations

import pytest

from repro.errors import BufferError_, ConfigurationError
from repro.kernel.state import SwitchState
from repro.packet import Packet
from repro.verify.reference import ReferenceFIFOMS


def _pkt(fanout: int = 2, slot: int = 0) -> Packet:
    return Packet(0, tuple(range(fanout)), slot)


class TestAllocate:
    def test_occupancy_counts_live_cells(self):
        model = ReferenceFIFOMS(4)
        model.preprocess(_pkt(), 0)
        model.preprocess(_pkt(slot=1), 1)
        assert len(model.buffer[0]) == 2

    def test_peak_tracks_high_water_mark(self):
        state = SwitchState(4)
        for slot in range(3):
            state.admit(_pkt(1, slot), slot)
        for _ in range(3):
            state.serve(0, 0b1)
        assert state.live[0] == 0
        assert state.peak_live[0] == 3

    def test_capacity_enforced(self):
        model = ReferenceFIFOMS(4, buffer_capacity=1)
        model.preprocess(_pkt(), 0)
        with pytest.raises(BufferError_):
            model.preprocess(_pkt(slot=1), 1)

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            ReferenceFIFOMS(4, buffer_capacity=0)


class TestRelease:
    def test_release_on_exhaustion_only(self):
        state = SwitchState(4)
        state.admit(_pkt(2), 0)
        assert state.serve(0, 0b01)[1] is False  # counter still 1
        assert state.live[0] == 1

    def test_record_service_full_cycle(self):
        model = ReferenceFIFOMS(4)
        model.preprocess(_pkt(2), 0)
        (cell,) = model.buffer[0]
        assert model.transmit(0, [0])[1] is False
        assert cell in model.buffer[0]
        assert model.transmit(0, [1])[1] is True
        assert cell not in model.buffer[0]
        assert not model.buffer[0]

    def test_counters(self):
        state = SwitchState(4)
        for slot in range(4):
            state.admit(_pkt(1, slot), slot)
        for _ in range(3):
            state.serve(0, 0b1)
        assert state.allocated_total[0] == 4
        assert state.released_total[0] == 3

    def test_capacity_freed_by_release(self):
        model = ReferenceFIFOMS(4, buffer_capacity=1)
        model.preprocess(_pkt(1), 0)
        model.transmit(0, [0])
        assert model.preprocess(_pkt(1, 1), 1)  # must not raise

    def test_live_cells_order(self):
        model = ReferenceFIFOMS(4)
        a, b = _pkt(), _pkt(slot=1)
        model.preprocess(a, 0)
        model.preprocess(b, 1)
        assert [cell.packet for cell in model.buffer[0]] == [a, b]
