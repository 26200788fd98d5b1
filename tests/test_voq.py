"""Virtual output queues: the reference model's address-cell deques and
their structural check, and the production ``SwitchState`` lookups that
stand in for a VOQ head."""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError
from repro.kernel.state import SwitchState
from repro.packet import Packet
from repro.verify.reference import ReferenceFIFOMS


def _model(n: int, *packets: Packet) -> ReferenceFIFOMS:
    model = ReferenceFIFOMS(n)
    for pkt in packets:
        assert model.preprocess(pkt, pkt.arrival_slot)
    return model


class TestVirtualOutputQueue:
    def test_fifo_order(self):
        a, b = Packet(0, (1,), 0), Packet(0, (1,), 3)
        model = _model(2, a, b)
        assert model.voqs[0][1][0].data_cell.packet is a
        assert model.transmit(0, [1])[0] is a
        assert model.transmit(0, [1])[0] is b
        assert not model.voqs[0][1]

    def test_out_of_order_push_rejected(self):
        model = _model(2, Packet(0, (1,), 5), Packet(0, (1,), 4))
        with pytest.raises(SchedulingError, match="time-stamp order"):
            model.check()

    def test_equal_timestamps_allowed(self):
        # Two packets cannot share a slot at one input, but the check must
        # not reject equality (the invariant is non-decreasing).
        model = _model(2, Packet(0, (1,), 5), Packet(0, (1,), 5))
        assert len(model.voqs[0][1]) == 2
        model.check()

    def test_pop_empty_raises(self):
        with pytest.raises(SchedulingError, match="empty VOQ"):
            SwitchState(2).serve(0, 0b1)


class TestMulticastVOQInputPort:
    def test_layout(self):
        model = ReferenceFIFOMS(4)
        assert [len(row) for row in model.voqs] == [4] * 4
        assert model.buffer == [{}, {}, {}, {}]

    def test_hol_queries_after_preprocess(self):
        model = _model(4, Packet(0, (1, 3), 2), Packet(0, (1,), 5))
        heads = [q[0].time_stamp if q else None for q in model.voqs[0]]
        assert heads == [None, 2, None, 2]
        assert sum(map(len, model.voqs[0])) == 3
        assert len(model.buffer[0]) == 2  # two live data cells

    def test_min_hol_respects_output_mask(self):
        state = SwitchState(3)
        state.admit(Packet(0, (0,), 1), 1)
        state.admit(Packet(0, (2,), 4), 4)
        assert state.hol_request(0, 0b110) == (4, 0, 0b100)
        assert state.hol_request(0, 0b010) is None

    def test_invariants_pass_on_consistent_state(self):
        _model(4, Packet(0, (0, 1, 2), 0)).check()

    def test_invariants_catch_counter_drift(self):
        model = _model(4, Packet(0, (0, 1), 0))
        (cell,) = model.buffer[0]
        cell.fanout_counter = 5  # corrupt
        with pytest.raises(SchedulingError):
            model.check()

    def test_invariants_catch_dangling_address_cell(self):
        model = _model(4, Packet(0, (0,), 0), Packet(0, (1,), 1))
        first, second = model.buffer[0]
        del model.buffer[0][first]  # destroyed while still queued
        second.fanout_counter = 2  # keep the counter sum in step
        with pytest.raises(SchedulingError, match="dangling"):
            model.check()
