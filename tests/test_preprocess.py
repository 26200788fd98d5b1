"""Packet preprocessing — the paper's Table 1 — on the reference model,
and the switch-level refusals of a malformed arrival on both kernels."""

from __future__ import annotations

import pytest

from repro.errors import BufferError_, TrafficError
from repro.packet import Packet
from repro.schedulers.registry import make_switch
from repro.verify.reference import ReferenceFIFOMS

from conftest import KERNELS


class TestPreprocess:
    def test_creates_one_data_cell_and_k_address_cells(self):
        model = ReferenceFIFOMS(8)
        pkt = Packet(0, (1, 4, 6), 3)
        assert model.preprocess(pkt, 3)
        (cell,) = model.buffer[0]
        assert cell.fanout_counter == 3
        for j in (1, 4, 6):
            (head,) = model.voqs[0][j]
            assert head.time_stamp == 3
            assert head.data_cell is cell
        assert sum(map(len, model.voqs[0])) == 3

    def test_timestamp_equals_arrival_slot(self):
        model = ReferenceFIFOMS(4)
        model.preprocess(Packet(0, (2,), 9), 9)
        assert model.voqs[0][2][0].time_stamp == 9

    def test_wrong_port_rejected(self):
        for backend in KERNELS:
            switch = make_switch("fifoms", 4, backend=backend)
            with pytest.raises(TrafficError):
                switch.step([None, Packet(0, (2,), 0), None, None], 0)

    def test_out_of_range_destination_rejected(self):
        for backend in KERNELS:
            switch = make_switch("fifoms", 4, backend=backend)
            with pytest.raises(TrafficError):
                switch.step([Packet(0, (4,), 0), None, None, None], 0)

    def test_buffer_overflow_propagates(self):
        for backend in KERNELS:
            switch = make_switch(
                "fifoms", 4, backend=backend, buffer_capacity=1,
                tie_break="lowest_input",
            )
            # Input 1 loses output 0 to input 0 and keeps its one cell.
            switch.step([Packet(0, (0,), 0), Packet(1, (0,), 0), None, None], 0)
            with pytest.raises(BufferError_):
                switch.step([None, Packet(1, (1,), 1), None, None], 1)

    def test_full_fanout_packet(self):
        model = ReferenceFIFOMS(4)
        model.preprocess(Packet(0, (0, 1, 2, 3), 0), 0)
        assert all(len(q) == 1 for q in model.voqs[0])
        model.check()
