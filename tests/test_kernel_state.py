"""Unit tests for repro.kernel.state (struct-of-arrays SwitchState)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.preprocess import preprocess_packet
from repro.core.voq import MulticastVOQInputPort
from repro.errors import BufferError_, ConfigurationError, SchedulingError
from repro.kernel.state import EMPTY_TS, SwitchState, soa_snapshot
from repro.packet import Packet


def _pkt(i, dests, slot):
    return Packet(input_port=i, destinations=tuple(dests), arrival_slot=slot)


class TestAdmit:
    def test_updates_hol_occupancy_backlog(self):
        st = SwitchState(4)
        assert st.admit(_pkt(1, (0, 2), 5), 5)
        assert st.hol_ts[1, 0] == 5 and st.hol_ts[1, 2] == 5
        assert st.hol_ts[1, 1] == EMPTY_TS
        assert st.occupancy[1] == [1, 0, 1, 0]
        assert st.total_backlog() == 2
        assert st.queue_sizes() == [0, 1, 0, 0]
        st.check_invariants()

    def test_hol_keeps_first_timestamp(self):
        st = SwitchState(4)
        st.admit(_pkt(0, (3,), 1), 1)
        st.admit(_pkt(0, (3,), 7), 7)
        assert st.hol_ts[0, 3] == 1
        assert st.occupancy[0][3] == 2
        st.check_invariants()

    def test_capacity_drop_policy(self):
        st = SwitchState(4, buffer_capacity=1, buffer_overflow="drop")
        assert st.admit(_pkt(2, (0,), 0), 0)
        assert not st.admit(_pkt(2, (1,), 1), 1)
        assert st.dropped_total[2] == 1
        assert st.total_backlog() == 1
        st.check_invariants()

    def test_capacity_raise_policy(self):
        st = SwitchState(4, buffer_capacity=1)
        st.admit(_pkt(2, (0,), 0), 0)
        with pytest.raises(BufferError_):
            st.admit(_pkt(2, (1,), 1), 1)

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            SwitchState(4, buffer_capacity=0)
        with pytest.raises(ConfigurationError):
            SwitchState(4, buffer_overflow="panic")


class TestServe:
    def test_partial_fanout_leaves_residue(self):
        st = SwitchState(4)
        st.admit(_pkt(0, (1, 2, 3), 0), 0)
        packet, released = st.serve(0, (1, 3))
        assert packet.destinations == (1, 2, 3)
        assert not released
        assert st.hol_ts[0, 1] == EMPTY_TS and st.hol_ts[0, 2] == 0
        assert st.total_backlog() == 1
        assert st.queue_sizes() == [1, 0, 0, 0]
        st.check_invariants()
        _, released = st.serve(0, (2,))
        assert released
        assert st.total_backlog() == 0
        assert st.queue_sizes() == [0, 0, 0, 0]
        assert st.released_total[0] == 1
        st.check_invariants()

    def test_hol_advances_to_next_packet(self):
        st = SwitchState(4)
        st.admit(_pkt(0, (2,), 3), 3)
        st.admit(_pkt(0, (2,), 9), 9)
        st.serve(0, (2,))
        assert st.hol_ts[0, 2] == 9
        st.check_invariants()

    def test_empty_voq_grant_rejected(self):
        st = SwitchState(4)
        with pytest.raises(SchedulingError):
            st.serve(0, (1,))

    def test_two_data_cells_per_input_rejected(self):
        st = SwitchState(4)
        st.admit(_pkt(0, (1,), 0), 0)
        st.admit(_pkt(0, (2,), 1), 1)
        with pytest.raises(SchedulingError):
            st.serve(0, (1, 2))


class TestIntegrity:
    def test_check_invariants_catches_occupancy_drift(self):
        st = SwitchState(4)
        st.admit(_pkt(0, (1,), 0), 0)
        st.occupancy[0][1] = 2
        with pytest.raises(SchedulingError):
            st.check_invariants()

    def test_check_invariants_catches_hol_drift(self):
        st = SwitchState(4)
        st.admit(_pkt(0, (1,), 5), 5)
        st.hol_ts[0, 1] = 4
        with pytest.raises(SchedulingError):
            st.check_invariants()

    def test_state_arrays_are_copies(self):
        st = SwitchState(4)
        st.admit(_pkt(0, (1, 2), 0), 0)
        snap = st.state_arrays()
        snap["hol_ts"][0, 1] = -1.0
        assert st.hol_ts[0, 1] == 0


class TestArrayLayout:
    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_ndarray_attributes_shapes_and_dtypes(self, n):
        """The numpy half of SwitchState; every other attribute is plain
        Python."""
        expected = {
            "hol_ts": ((n, n), np.float64),
            "ts_scratch": ((n, n), np.float64),
            "col_scratch": ((n, n), np.float64),
            "req_scratch": ((n, n), np.bool_),
            "win_scratch": ((n, n), np.bool_),
            "input_free": ((n,), np.bool_),
            "output_free": ((n,), np.bool_),
            "row_min_scratch": ((n,), np.float64),
            "col_min_scratch": ((n,), np.float64),
            "row_min_col": ((n, 1), np.float64),
            "col_min_row": ((1, n), np.float64),
        }
        st = SwitchState(n)
        st.admit(_pkt(0, (0, 1), 0), 0)
        st.serve(0, (1,))
        attrs = {name: getattr(st, name) for name in SwitchState.__slots__}
        actual = {
            name: (value.shape, value.dtype)
            for name, value in attrs.items()
            if isinstance(value, np.ndarray)
        }
        assert actual == expected
        # The (N, 1) / (1, N) members are views of the two min vectors:
        # the round loop writes the vector and broadcasts the view.
        assert np.shares_memory(st.row_min_col, st.row_min_scratch)
        assert np.shares_memory(st.col_min_row, st.col_min_scratch)


class TestSoaSnapshotParity:
    def test_matches_live_state_after_identical_ops(self):
        """The SoA export of object-model ports equals a SwitchState fed
        the same admits/serves — the anchor the equivalence harness uses."""
        n = 4
        ports = [MulticastVOQInputPort(i, n) for i in range(n)]
        st = SwitchState(n)
        script = [
            _pkt(0, (1, 2, 3), 0),
            _pkt(1, (0,), 0),
            _pkt(0, (2,), 1),
            _pkt(3, (0, 1), 2),
        ]
        for pkt in script:
            preprocess_packet(ports[pkt.input_port], pkt, pkt.arrival_slot)
            st.admit(pkt, pkt.arrival_slot)
        # Serve input 0's head on outputs 1 and 3 in both models.
        for j in (1, 3):
            cell = ports[0].voqs[j].pop_head()
            ports[0].buffer.record_service(cell.data_cell)
        st.serve(0, (1, 3))
        obj = soa_snapshot(ports)
        vec = st.state_arrays()
        assert np.array_equal(obj["hol_ts"], vec["hol_ts"])
        assert np.array_equal(obj["occupancy"], vec["occupancy"])
        assert np.array_equal(obj["live"], vec["live"])
        for a, b in zip(obj["fanout_counters"], vec["fanout_counters"]):
            assert np.array_equal(np.asarray(a), np.asarray(b))
