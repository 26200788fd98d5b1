"""Unit tests for repro.kernel.state (struct-of-arrays SwitchState)."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.core.preprocess import preprocess_packet
from repro.core.voq import MulticastVOQInputPort
from repro.errors import BufferError_, ConfigurationError, SchedulingError
from repro.kernel.state import EMPTY_TS, SwitchState, soa_snapshot
from repro.packet import Packet


def _pkt(i, dests, slot):
    return Packet(input_port=i, destinations=tuple(dests), arrival_slot=slot)


def _hol_ts(st):
    """The (N, N) HOL-timestamp matrix, rebuilt from the VOQ heads."""
    return st.state_arrays()["hol_ts"]


class TestAdmit:
    def test_updates_hol_occupancy_backlog(self):
        st = SwitchState(4)
        assert st.admit(_pkt(1, (0, 2), 5), 5)
        hol_ts = _hol_ts(st)
        assert hol_ts[1, 0] == 5 and hol_ts[1, 2] == 5
        assert hol_ts[1, 1] == EMPTY_TS
        assert st.hol_pids[1] == [0] and st.p_hol[0] == 0b0101
        assert st.occupancy[1] == [1, 0, 1, 0]
        assert st.total_backlog() == 2
        assert st.queue_sizes() == [0, 1, 0, 0]
        st.check_invariants()

    def test_hol_keeps_first_timestamp(self):
        st = SwitchState(4)
        st.admit(_pkt(0, (3,), 1), 1)
        st.admit(_pkt(0, (3,), 7), 7)
        assert _hol_ts(st)[0, 3] == 1
        # The second packet queues behind the first: no HOL bit yet, so
        # it is not among the input's HOL packets.
        assert st.hol_pids[0] == [0] and st.p_hol[:2] == [0b1000, 0]
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
        hol_ts = _hol_ts(st)
        assert hol_ts[0, 1] == EMPTY_TS and hol_ts[0, 2] == 0
        assert st.p_hol[st.hol_pids[0][0]] == 0b0100
        assert st.total_backlog() == 1
        assert st.queue_sizes() == [1, 0, 0, 0]
        st.check_invariants()
        _, released = st.serve(0, (2,))
        assert released
        assert st.total_backlog() == 0
        assert st.queue_sizes() == [0, 0, 0, 0]
        assert st.released_total[0] == 1
        assert not st.hol_pids[0]
        st.check_invariants()

    def test_hol_advances_to_next_packet(self):
        st = SwitchState(4)
        st.admit(_pkt(0, (2,), 3), 3)
        st.admit(_pkt(0, (2,), 9), 9)
        st.serve(0, (2,))
        assert _hol_ts(st)[0, 2] == 9
        (pid,) = st.hol_pids[0]
        assert st.p_ts[pid] == 9 and st.p_hol[pid] == 0b0100
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
        st.p_hol[st.hol_pids[0][0]] = 0
        with pytest.raises(SchedulingError, match="HOL-index drift"):
            st.check_invariants()

    def test_check_invariants_catches_wrong_hol_bit(self):
        """A packet queued *behind* another must not claim that VOQ."""
        st = SwitchState(4)
        st.admit(_pkt(0, (1, 2), 0), 0)
        st.admit(_pkt(0, (2, 3), 1), 1)
        st.check_invariants()
        younger = st.hol_pids[0][1]
        assert st.p_hol[younger] == 0b1000
        st.p_hol[younger] |= 0b0100  # VOQ (0, 2) is headed by the older pid
        with pytest.raises(SchedulingError, match="HOL-index drift"):
            st.check_invariants()

    def test_check_invariants_catches_stale_hol_pids_entry(self):
        """A pid that heads nothing any more (served, released) left in
        hol_pids — and a heading pid missing from it."""
        st = SwitchState(4)
        st.admit(_pkt(0, (1,), 0), 0)
        st.admit(_pkt(0, (2,), 1), 1)
        gone = st.hol_pids[0][0]
        st.serve(0, (1,))
        st.check_invariants()
        st.hol_pids[0].insert(0, gone)
        with pytest.raises(SchedulingError, match="hol_pids"):
            st.check_invariants()
        st.hol_pids[0].clear()
        with pytest.raises(SchedulingError, match="hol_pids"):
            st.check_invariants()

    def test_check_invariants_catches_arrival_order_drift(self):
        st = SwitchState(4)
        st.admit(_pkt(0, (1,), 0), 0)
        st.admit(_pkt(0, (2,), 1), 1)
        st.hol_pids[0].reverse()
        with pytest.raises(SchedulingError, match="arrival order"):
            st.check_invariants()

    def test_check_invariants_catches_two_arrivals_in_one_slot(self):
        """One packet per input per slot is what lets a timestamp name a
        packet; the kernel seam guarantees it, a direct caller may not."""
        st = SwitchState(4)
        st.admit(_pkt(0, (1,), 3), 3)
        st.admit(_pkt(0, (2,), 3), 3)
        with pytest.raises(SchedulingError, match="arrival order"):
            st.check_invariants()

    def test_state_arrays_are_copies(self):
        st = SwitchState(4)
        st.admit(_pkt(0, (1, 2), 0), 0)
        snap = st.state_arrays()
        snap["hol_ts"][0, 1] = -1.0
        snap["occupancy"][0, 1] = 7
        assert _hol_ts(st)[0, 1] == 0
        assert st.occupancy[0][1] == 1
        st.check_invariants()


class TestPidPool:
    def test_released_pid_is_recycled(self):
        st = SwitchState(4)
        st.admit(_pkt(0, (1,), 0), 0)
        st.admit(_pkt(2, (1,), 0), 0)
        st.serve(0, (1,))
        assert st.free_pids == [0] and st.packets[0] is None
        st.admit(_pkt(3, (0, 2), 1), 1)
        assert st.hol_pids[3] == [0] and not st.free_pids
        assert len(st.packets) == 2
        assert st.p_ts[0] == 1 and st.p_fanout[0] == 2 and st.p_hol[0] == 0b0101
        st.check_invariants()

    def test_pid_tables_stay_bounded_by_peak_live(self):
        """O(live), not O(run length): after 20 000 slots at N = 4 the
        pid tables are no longer than peak live + N."""
        from repro.schedulers import make_switch
        from repro.traffic import BernoulliMulticastTraffic

        n = 4
        switch = make_switch("fifoms", n, backend="vectorized", rng=5)
        traffic = BernoulliMulticastTraffic(n, p=0.3, b=0.5, rng=6)
        st = switch._backend.state
        peak_live = 0
        for slot in range(20_000):
            switch.step(traffic.next_slot(), slot)
            # Sampled after service; within the slot the arrivals (up
            # to N) are live on top of it, hence the "+ N" below.
            peak_live = max(peak_live, sum(st.live))
        assert switch.packets_accepted > 20_000
        for table in (st.packets, st.p_fanout, st.p_ts, st.p_hol):
            assert len(table) <= peak_live + n
        assert sum(st.live) + len(st.free_pids) == len(st.packets)
        st.check_invariants()


class TestHolIndex:
    def test_new_head_joins_hol_pids_in_arrival_order(self):
        """Serving the middle packet's only head promotes the youngest,
        which lands *after* the still-waiting oldest."""
        st = SwitchState(4)
        st.admit(_pkt(0, (1,), 0), 0)     # pid 0 heads VOQ 1
        st.admit(_pkt(0, (2,), 1), 1)     # pid 1 heads VOQ 2
        st.admit(_pkt(0, (1, 2), 2), 2)   # pid 2 heads nothing yet
        assert st.hol_pids[0] == [0, 1] and st.p_hol[2] == 0
        st.serve(0, (2,))
        assert st.hol_pids[0] == [0, 2] and st.p_hol[2] == 0b0100
        st.check_invariants()
        st.serve(0, (1,))
        assert st.hol_pids[0] == [2] and st.p_hol[2] == 0b0110
        st.check_invariants()

    def test_promoted_head_can_be_older_than_other_hol_packets(self):
        st = SwitchState(4)
        st.admit(_pkt(0, (1,), 0), 0)     # pid 0
        st.admit(_pkt(0, (1,), 1), 1)     # pid 1 waits behind pid 0
        st.admit(_pkt(0, (3,), 2), 2)     # pid 2 heads VOQ 3
        assert st.hol_pids[0] == [0, 2]
        st.serve(0, (1,))
        assert st.hol_pids[0] == [1, 2]   # pid 1 is older than pid 2
        st.check_invariants()

    def test_request_is_oldest_eligible_packet_and_its_free_heads(self):
        st = SwitchState(4)
        st.admit(_pkt(0, (1, 2), 3), 3)
        st.admit(_pkt(0, (2, 3), 4), 4)
        assert st.hol_request(0, 0b1111) == (3, 0, 0b0110)
        # Output 1 busy: the oldest packet still requests output 2.
        assert st.hol_request(0, 0b1101) == (3, 0, 0b0100)
        # Outputs 1 and 2 busy: the younger packet's head at output 3.
        assert st.hol_request(0, 0b1001) == (4, 0, 0b1000)
        assert st.hol_request(0, 0b0001) is None
        assert st.hol_request(1, 0b1111) is None

    def test_lookup_is_bounded_by_ports_not_backlog(self):
        """A thousand packets behind one busy output: the request for
        the other output is found among <= N HOL packets."""
        st = SwitchState(4)
        for slot in range(1000):
            st.admit(_pkt(0, (0,), slot), slot)
        st.admit(_pkt(0, (3,), 1000), 1000)
        assert len(st.hol_pids[0]) == 2
        assert st.hol_request(0, 0b1110) == (1000, 0, 0b1000)


class TestArrayLayout:
    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_ndarray_attributes_shapes_and_dtypes(self, n):
        """SwitchState holds no numpy attribute: the HOL-packet index and
        every ledger are plain Python; arrays exist only in the
        ``state_arrays()`` snapshot."""
        st = SwitchState(n)
        st.admit(_pkt(0, (0, 1), 0), 0)
        st.serve(0, (1,))
        attrs = {name: getattr(st, name) for name in SwitchState.__slots__}
        assert not any(isinstance(v, np.ndarray) for v in attrs.values())
        per_input = ("hol_pids", "live", "peak_live", "allocated_total",
                     "released_total", "dropped_total", "occupancy", "voq_pids")
        for name in per_input:
            assert type(attrs[name]) is list and len(attrs[name]) == n
        assert all(type(pids) is list for pids in st.hol_pids)
        assert all(type(row) is list and len(row) == n for row in st.occupancy)
        assert all(
            type(dq) is deque for row in st.voq_pids for dq in row
        ) and all(len(row) == n for row in st.voq_pids)
        per_pid = ("packets", "p_fanout", "p_ts", "p_hol")
        assert {len(attrs[name]) for name in per_pid} == {1}
        assert all(type(v) is int for name in per_pid[1:] for v in attrs[name])
        assert type(st.free_pids) is list
        snap = st.state_arrays()
        assert snap["hol_ts"].shape == (n, n)
        assert snap["hol_ts"].dtype == np.float64
        assert snap["occupancy"].shape == (n, n)
        assert snap["occupancy"].dtype == np.int64
        assert snap["live"].shape == (n,) and snap["live"].dtype == np.int64
        assert len(snap["fanout_counters"]) == n
        assert all(f.dtype == np.int64 for f in snap["fanout_counters"])
        assert snap["fanout_counters"][0].tolist() == [1]


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
