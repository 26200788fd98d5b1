"""Unit tests for repro.kernel.state (struct-of-arrays SwitchState)."""

from __future__ import annotations

import copy
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from repro.errors import BufferError_, ConfigurationError, SchedulingError
from repro.kernel import make_backend
from repro.kernel.state import EMPTY_TS, SwitchState
from repro.packet import Packet
from repro.utils.bitsets import iter_bits


def _pkt(i, dests, slot):
    return Packet(input_port=i, destinations=tuple(dests), arrival_slot=slot)


def _hol_ts(st):
    """The (N, N) HOL-timestamp matrix, rebuilt from the VOQ heads."""
    return st.state_arrays()["hol_ts"]


def _plain(snapshot):
    """A ``state_arrays()`` snapshot as nested lists, comparable with ==."""
    return {
        key: [np.asarray(v).tolist() for v in value] if isinstance(value, list)
        else np.asarray(value).tolist()
        for key, value in snapshot.items()
    }


def _fields(st):
    """Every field of ``st``, deep-copied."""
    return copy.deepcopy({name: getattr(st, name) for name in SwitchState.__slots__})


class TestAdmit:
    def test_updates_hol_occupancy_backlog(self):
        st = SwitchState(4)
        assert st.admit(_pkt(1, (0, 2), 5), 5)
        hol_ts = _hol_ts(st)
        assert hol_ts[1, 0] == 5 and hol_ts[1, 2] == 5
        assert hol_ts[1, 1] == EMPTY_TS
        assert st.hol_pids[1] == [0] and st.p_hol[0] == 0b0101
        assert st.state_arrays()["occupancy"][1].tolist() == [1, 0, 1, 0]
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
        assert st.state_arrays()["occupancy"][0, 3] == 2
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
        packet, released = st.serve(0, 0b1010)
        assert packet.destinations == (1, 2, 3)
        assert not released
        hol_ts = _hol_ts(st)
        assert hol_ts[0, 1] == EMPTY_TS and hol_ts[0, 2] == 0
        assert st.p_hol[st.hol_pids[0][0]] == 0b0100
        assert st.total_backlog() == 1
        assert st.queue_sizes() == [1, 0, 0, 0]
        st.check_invariants()
        _, released = st.serve(0, 0b0100)
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
        st.serve(0, 0b0100)
        assert _hol_ts(st)[0, 2] == 9
        (pid,) = st.hol_pids[0]
        assert st.p_ts[pid] == 9 and st.p_hol[pid] == 0b0100
        st.check_invariants()

    def test_empty_voq_grant_rejected(self):
        st = SwitchState(4)
        with pytest.raises(SchedulingError):
            st.serve(0, 0b0010)

    def test_two_data_cells_per_input_rejected(self):
        st = SwitchState(4)
        st.admit(_pkt(0, (1,), 0), 0)
        st.admit(_pkt(0, (2,), 1), 1)
        with pytest.raises(SchedulingError):
            st.serve(0, 0b0110)

    @settings(max_examples=150, deadline=None)
    @given(
        n=hs.sampled_from([2, 4, 70]),
        ops=hs.lists(
            hs.tuples(hs.booleans(), hs.integers(0, 69), hs.integers(1, 2**70 - 1)),
            max_size=120,
        ),
    )
    def test_serve_clears_a_bit_exactly_when_it_empties_a_voq(self, n, ops):
        state = SwitchState(n)
        everyone = (1 << n) - 1
        for slot, (arrive, i, bits) in enumerate(ops):
            i %= n
            if arrive:
                dests = [j for j in range(n) if bits >> j & 1] or [i]
                before = state.nonempty[i]
                state.admit(_pkt(i, dests, slot), slot)
                assert state.nonempty[i] == before | sum(1 << j for j in dests)
            elif (request := state.hol_request(i, everyone)) is not None:
                mask = request[2] & bits or request[2]
                before = state.nonempty[i]
                state.serve(i, mask)
                occupancy = state.state_arrays()["occupancy"][i]
                emptied = sum(
                    1 << j for j in range(n) if mask >> j & 1 and not occupancy[j]
                )
                assert state.nonempty[i] == before & ~emptied
            state.check_invariants()

    def test_serve_rows_is_a_serve_loop(self):
        """One serve_rows call over a slot's grants leaves the state,
        rows and reclaimed count of one serve per grant."""
        script = [_pkt(0, (1, 2, 3), 0), _pkt(1, (0, 2), 0), _pkt(2, (3,), 0)]
        grants = [(0, 0b0010), (1, 0b0101), (2, 0b1000)]
        looped, batched = SwitchState(4), SwitchState(4)
        for pkt in script:
            looped.admit(pkt, 0)
            batched.admit(pkt, 0)
        served = [looped.serve(i, mask) for i, mask in grants]
        rows: list = []
        reclaimed = batched.serve_rows(grants, rows.append)
        assert rows == [(packet, mask) for (packet, _), (_, mask) in zip(served, grants)]
        assert reclaimed == sum(released for _, released in served) == 2
        for name in SwitchState.__slots__:
            assert getattr(batched, name) == getattr(looped, name), name
        batched.check_invariants()

    @pytest.mark.parametrize(
        "mask, message",
        [
            (0b00001, r"grant for empty VOQ \(0, 0\)"),
            (0b00011, r"grant for empty VOQ \(0, 0\)"),
            (0b01010, r"two distinct data cells in one slot \(pids 0 and 1\)"),
            (0b01100, r"two distinct data cells in one slot \(pids 0 and 1\)"),
            (0b11000, r"two distinct data cells in one slot \(pids 1 and 2\)"),
            (0b10010, r"two distinct data cells in one slot \(pids 0 and 2\)"),
            (0, "granted the output mask 0b0"),
        ],
    )
    def test_a_faulting_grant_changes_nothing(self, mask, message):
        """The grant is checked against the HOL index before anything
        moves: the state, invariants and snapshot are those before it."""
        st = SwitchState(5)
        st.admit(_pkt(0, (1, 2), 0), 0)      # pid 0 heads VOQs 1 and 2
        st.admit(_pkt(0, (2, 3), 1), 1)      # pid 1 heads 3, waits at 2
        st.admit(_pkt(0, (2, 4), 2), 2)      # pid 2 heads 4, waits at 2
        fields, snapshot = _fields(st), _plain(st.state_arrays())
        with pytest.raises(SchedulingError, match=message):
            st.serve(0, mask)
        assert _fields(st) == fields
        assert _plain(st.state_arrays()) == snapshot
        st.check_invariants()

    def test_serve_rows_keeps_counters_of_grants_served_before_a_fault(self):
        """A grant that raises leaves the backlog and residue counters of
        the grants served before it (the rows appended so far)."""
        st = SwitchState(4)
        st.admit(_pkt(0, (1, 2), 0), 0)
        st.admit(_pkt(1, (3,), 0), 0)
        rows: list = []
        with pytest.raises(SchedulingError, match="empty VOQ"):
            st.serve_rows([(0, 0b0010), (1, 0b0001)], rows.append)
        assert [mask for _, mask in rows] == [0b0010]
        assert st.total_backlog() == 2
        assert st.residue == 1


class TestIntegrity:
    def test_check_invariants_catches_nonempty_drift(self):
        """Clearing the bit of a non-empty VOQ, or setting the bit of an
        empty one, is caught."""
        for bit in (0b0010, 0b0100):
            st = SwitchState(4)
            st.admit(_pkt(0, (1,), 0), 0)
            st.nonempty[0] ^= bit
            with pytest.raises(SchedulingError, match="non-empty mask drift"):
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
        st.serve(0, 0b0010)
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

    def test_check_invariants_catches_deep_drift(self):
        """A deep bit without a deque, or a deque without its bit."""
        for flip in (0b0100, 0b0010):
            st = SwitchState(4)
            st.admit(_pkt(0, (1, 2), 0), 0)
            st.admit(_pkt(0, (1,), 1), 1)
            st.deep[0] ^= flip
            with pytest.raises(SchedulingError, match="deep mask drift"):
                st.check_invariants()

    def test_check_invariants_catches_a_queue_out_of_order(self):
        st = SwitchState(4)
        for slot in range(3):
            st.admit(_pkt(0, (1,), slot), slot)
        st.check_invariants()
        st.behind[0][1].reverse()
        with pytest.raises(SchedulingError, match="timestamp-sorted"):
            st.check_invariants()

    def test_check_invariants_catches_fanout_drift(self):
        """A fanout counter that is not the packet's heads plus the cells
        it has queued behind other heads."""
        st = SwitchState(4)
        st.admit(_pkt(0, (1,), 0), 0)
        st.admit(_pkt(0, (1, 2), 1), 1)      # pid 1: one head, one queued
        st.check_invariants()
        st.p_fanout[1] = 1
        with pytest.raises(SchedulingError, match="fanout counter"):
            st.check_invariants()

    def test_state_arrays_are_copies(self):
        st = SwitchState(4)
        st.admit(_pkt(0, (1, 2), 0), 0)
        snap = st.state_arrays()
        snap["hol_ts"][0, 1] = -1.0
        snap["occupancy"][0, 1] = 7
        assert _hol_ts(st)[0, 1] == 0
        assert st.state_arrays()["occupancy"][0, 1] == 1
        st.check_invariants()


class TestBehindHeads:
    """Only the cells queued *behind* a VOQ's head sit in a deque."""

    def test_a_deque_lives_only_while_its_voq_holds_two_cells(self):
        st = SwitchState(256)
        assert st.behind == [{}] * 256 and not any(st.deep)
        st.admit(_pkt(5, (7, 200), 0), 0)    # pid 0 heads both VOQs
        assert not any(st.behind) and not any(st.deep)
        st.admit(_pkt(5, (200,), 1), 1)      # VOQ (5, 200)'s second cell
        assert st.behind[5] == {200: deque([1])} and st.deep[5] == 1 << 200
        st.admit(_pkt(5, (200,), 2), 2)
        assert st.behind[5] == {200: deque([1, 2])}
        st.check_invariants()
        st.serve(5, 1 << 7 | 1 << 200)       # pid 1 is promoted
        assert st.behind[5] == {200: deque([2])} and st.hol_pids[5] == [1]
        st.serve(5, 1 << 200)                # back to one cell: no deque
        assert not any(st.behind) and not any(st.deep)
        assert st.hol_pids[5] == [2] and st.p_hol[2] == 1 << 200
        st.check_invariants()
        st.serve(5, 1 << 200)
        assert st.nonempty[5] == 0 and not st.hol_pids[5]
        st.check_invariants()

    @settings(max_examples=60, deadline=None)
    @given(
        n=hs.sampled_from([2, 4, 70]),
        ops=hs.lists(
            hs.tuples(
                hs.integers(0, 3),
                hs.integers(0, 2),
                hs.integers(1, 2**70 - 1),
                hs.integers(0, 2**70 - 1),
            ),
            min_size=30,
            max_size=120,
        ),
    )
    def test_matches_the_reference_with_deep_queues(self, n, ops):
        """Random admit / serve scripts on three inputs (three arrivals
        to a service, so queues run several cells deep): the snapshot,
        the seam counters and every request equal the reference's."""
        state = SwitchState(n)
        reference = make_backend("object", n)
        everyone = (1 << n) - 1
        for slot, (kind, i, bits, free) in enumerate(ops):
            i %= n
            if kind:
                dests = [j for j in range(n) if bits >> j & 1] or [i]
                packet = _pkt(i, dests, slot)
                assert state.admit(packet, slot) and reference.admit(packet, slot)
            elif (request := state.hol_request(i, everyone)) is not None:
                mask = request[2] & bits or request[2]
                state.serve(i, mask)
                reference.model.transmit(i, list(iter_bits(mask)))
            free &= everyone
            ts, outputs = reference.model._request(
                i, [bool(free >> j & 1) for j in range(n)]
            )
            expected = (ts, i, sum(1 << j for j in outputs)) if outputs else None
            assert state.hol_request(i, free) == expected
            assert _plain(state.state_arrays()) == _plain(reference.state_arrays())
            assert state.slot_stats() == reference.harvest_slot_stats()
            assert state.total_backlog() == reference.total_backlog()
        state.check_invariants()


class TestVoqPeak:
    """``slot_stats()["voq_peak"]`` is the largest VOQ count however
    often it is read: every op, every k ops, or twice in a row."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=hs.sampled_from([2, 4, 16]),
        every=hs.integers(1, 6),
        ops=hs.lists(
            hs.tuples(hs.booleans(), hs.integers(0, 15), hs.integers(1, 0xFFFF)),
            max_size=250,
        ),
    )
    def test_matches_a_full_scan(self, n, every, ops):
        state = SwitchState(n)
        everyone = (1 << n) - 1
        for slot, (arrive, i, bits) in enumerate(ops):
            i %= n
            if arrive:
                dests = [j for j in range(n) if bits >> j & 1] or [i]
                state.admit(_pkt(i, dests, slot), slot)
            elif (request := state.hol_request(i, everyone)) is not None:
                state.serve(i, request[2] & bits or request[2])
            if slot % every == 0:
                for _ in range(1 + slot % 2):
                    peak = state.slot_stats()["voq_peak"]
                    assert peak == state.state_arrays()["occupancy"].max()
        assert state.slot_stats()["voq_peak"] == state.state_arrays()["occupancy"].max()


class TestPidPool:
    def test_released_pid_is_recycled(self):
        st = SwitchState(4)
        st.admit(_pkt(0, (1,), 0), 0)
        st.admit(_pkt(2, (1,), 0), 0)
        st.serve(0, 0b0010)
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
        st.serve(0, 0b0100)
        assert st.hol_pids[0] == [0, 2] and st.p_hol[2] == 0b0100
        st.check_invariants()
        st.serve(0, 0b0010)
        assert st.hol_pids[0] == [2] and st.p_hol[2] == 0b0110
        st.check_invariants()

    def test_promoted_head_can_be_older_than_other_hol_packets(self):
        st = SwitchState(4)
        st.admit(_pkt(0, (1,), 0), 0)     # pid 0
        st.admit(_pkt(0, (1,), 1), 1)     # pid 1 waits behind pid 0
        st.admit(_pkt(0, (3,), 2), 2)     # pid 2 heads VOQ 3
        assert st.hol_pids[0] == [0, 2]
        st.serve(0, 0b0010)
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
        st.serve(0, 0b0010)
        attrs = {name: getattr(st, name) for name in SwitchState.__slots__}
        assert not any(isinstance(v, np.ndarray) for v in attrs.values())
        per_input = ("hol_pids", "live", "peak_live", "allocated_total",
                     "released_total", "dropped_total", "nonempty", "deep", "behind")
        for name in per_input:
            assert type(attrs[name]) is list and len(attrs[name]) == n
        assert all(type(pids) is list for pids in st.hol_pids)
        assert all(type(mask) is int for name in ("nonempty", "deep")
                   for mask in attrs[name])
        assert all(type(row) is dict for row in st.behind)
        # A second cell queued behind a head is the only one in a deque.
        assert not any(st.behind)
        st.admit(_pkt(0, (0,), 1), 1)
        assert st.behind[0] == {0: deque([1])} and st.deep[0] == 0b01
        per_pid = ("packets", "p_fanout", "p_ts", "p_hol")
        assert {len(attrs[name]) for name in per_pid} == {2}
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
        assert snap["fanout_counters"][0].tolist() == [1, 1]
        assert snap["occupancy"][0, :2].tolist() == [2, 0]


class TestSoaSnapshotParity:
    def test_matches_live_state_after_identical_ops(self):
        """The reference kernel's SoA snapshot equals a SwitchState fed
        the same admits/serves — what ReferenceShadow's deep pass compares."""
        n = 4
        reference = make_backend("object", n)
        st = SwitchState(n)
        script = [
            _pkt(0, (1, 2, 3), 0),
            _pkt(1, (0,), 0),
            _pkt(0, (2,), 1),
            _pkt(3, (0, 1), 2),
        ]
        for pkt in script:
            reference.admit(pkt, pkt.arrival_slot)
            st.admit(pkt, pkt.arrival_slot)
        # Serve input 0's head on outputs 1 and 3 in both models.
        reference.model.transmit(0, [1, 3])
        st.serve(0, 0b1010)
        obj = reference.state_arrays()
        vec = st.state_arrays()
        assert np.array_equal(obj["hol_ts"], vec["hol_ts"])
        assert np.array_equal(obj["occupancy"], vec["occupancy"])
        assert np.array_equal(obj["live"], vec["live"])
        for a, b in zip(obj["fanout_counters"], vec["fanout_counters"]):
            assert np.array_equal(np.asarray(a), np.asarray(b))