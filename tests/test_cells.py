"""Table 1's cells in the reference model (repro.verify.reference):
one ``DataCell`` with a ``fanoutCounter`` per packet, one ``AddressCell``
with a ``timeStamp`` per destination."""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError
from repro.packet import Packet
from repro.verify.reference import AddressCell, DataCell, ReferenceFIFOMS


def _model(*packets: Packet) -> ReferenceFIFOMS:
    model = ReferenceFIFOMS(4)
    for pkt in packets:
        assert model.preprocess(pkt, pkt.arrival_slot)
    return model


class TestDataCell:
    def test_counter_initialized_to_fanout(self):
        model = _model(Packet(0, (0, 1, 2), 0))
        (cell,) = model.buffer[0]
        assert cell.fanout_counter == 3

    def test_decrement_to_zero(self):
        pkt = Packet(0, (0, 1), 0)
        model = _model(pkt)
        assert model.transmit(0, [0]) == (pkt, False)
        assert model.transmit(0, [1]) == (pkt, True)
        assert not model.buffer[0]  # destroyed at 0

    def test_decrement_underflow_raises(self):
        model = _model(Packet(0, (0,), 0))
        (cell,) = model.buffer[0]
        cell.fanout_counter = 0  # corrupt: spent before its one service
        model.transmit(0, [0])
        assert cell.fanout_counter == -1
        with pytest.raises(SchedulingError, match="fanout counters"):
            model.check()


class TestAddressCell:
    def test_fields_and_packet_accessor(self):
        pkt = Packet(3, (0, 2), 7)
        data = DataCell(pkt, 2)
        addr = AddressCell(time_stamp=7, data_cell=data)
        assert addr.time_stamp == 7
        assert addr.data_cell is data
        assert addr.data_cell.packet is pkt

    def test_address_cells_share_one_data_cell(self):
        # The paper's space argument: k address cells, one payload.
        pkt = Packet(0, (0, 1, 2, 3), 0)
        model = _model(pkt)
        cells = [model.voqs[0][j][0] for j in pkt.destinations]
        (data,) = model.buffer[0]
        assert all(c.data_cell is data for c in cells)
        assert data.fanout_counter == len(cells)

    def test_frozen(self):
        addr = AddressCell(0, DataCell(Packet(0, (0,), 0), 1))
        with pytest.raises(AttributeError):
            addr.time_stamp = 5  # type: ignore[misc]
