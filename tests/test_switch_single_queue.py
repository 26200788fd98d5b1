"""Unit tests for the single-input-queued switch (TATRA/WBA substrate)."""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError
from repro.schedulers.siq_fifo import SIQFifoScheduler
from repro.schedulers.tatra import TATRAScheduler
from repro.switch.single_queue import SingleInputQueueSwitch

from conftest import make_packet


def _lane(n, *pkts):
    lanes = [None] * n
    for p in pkts:
        lanes[p.input_port] = p
    return lanes


class TestHOLBlocking:
    def test_second_packet_blocked_behind_hol(self):
        """The defining pathology of Fig. 1b: a queued packet for a FREE
        output waits because the HOL packet is blocked.

        Both inputs contend for output 0 at slot 0; whoever loses keeps
        its HOL cell, and that input's *second* packet (for an idle
        output) arriving at slot 1 must wait a slot behind it — the exact
        situation VOQ structures (and FIFOMS) eliminate. The scenario is
        symmetric, so the assertion holds whichever input wins the tie.
        """
        sw = SingleInputQueueSwitch(4, SIQFifoScheduler(4, rng=0))
        r0 = sw.step(
            _lane(4, make_packet(0, (0,), 0), make_packet(1, (0,), 0)), 0
        )
        assert len(r0.deliveries) == 1  # only one wins output 0
        # Second packets target private, idle outputs 2 and 3.
        a2 = make_packet(0, (2,), 1)
        b2 = make_packet(1, (3,), 1)
        r1 = sw.step(_lane(4, a2, b2), 1)
        # Slot 1 serves the loser's old HOL cell plus the winner's new
        # packet; the loser's new packet is HOL-blocked despite its idle
        # output.
        assert len(r1.deliveries) == 2
        assert 0 in {d.output_port for d in r1.deliveries}
        r2 = sw.step(_lane(4), 2)
        assert len(r2.deliveries) == 1
        assert r2.deliveries[0].delay == 2  # one slot lost to HOL blocking
        assert sw.total_backlog() == 0

    def test_fanout_splitting_residue(self):
        sw = SingleInputQueueSwitch(4, SIQFifoScheduler(4, rng=0))
        a = make_packet(0, (0, 1), 0)
        b = make_packet(1, (1, 2), 0)
        r0 = sw.step(_lane(4, a, b), 0)
        # Output 1 contended (tie broken randomly); outputs 0 and 2 served.
        outs0 = sorted(d.output_port for d in r0.deliveries)
        assert 0 in outs0 and 2 in outs0 and len(outs0) == 3
        r1 = sw.step(_lane(4), 1)
        assert [d.output_port for d in r1.deliveries] == [1]
        assert sw.total_backlog() == 0

    def test_queue_size_counts_packets(self):
        sw = SingleInputQueueSwitch(4, SIQFifoScheduler(4, rng=0))
        # Two full-fanout packets contend on every output: each input can
        # win at most some outputs per slot, so both keep HOL residues.
        sw.step(
            _lane(
                4,
                make_packet(0, (0, 1, 2, 3), 0),
                make_packet(1, (0, 1, 2, 3), 0),
            ),
            0,
        )
        sizes = sw.queue_sizes()
        # Each partially-served packet still counts as one queued packet.
        assert sizes[0] == 1 and sizes[1] == 1
        assert sw.total_backlog() == 4  # 8 cells offered, 4 served

    def test_grant_outside_residue_detected(self):
        class BadScheduler:
            def schedule(self, view):
                from repro.core.matching import ScheduleDecision

                d = ScheduleDecision()
                d.add(0, (3,))  # output 3 is not in the HOL fanout
                return d

        sw = SingleInputQueueSwitch(4, BadScheduler())
        with pytest.raises(SchedulingError):
            sw.step(_lane(4, make_packet(0, (0,), 0)), 0)

    def test_invariants(self):
        sw = SingleInputQueueSwitch(4, TATRAScheduler(4))
        sw.step(_lane(4, make_packet(0, (0, 2), 0), make_packet(3, (2,), 0)), 0)
        sw.check_invariants()

    def test_backlog_counter_follows_the_queues(self):
        """total_backlog() is a kept integer; check_invariants() holds it
        to a walk over every queued packet."""
        sw = SingleInputQueueSwitch(4, SIQFifoScheduler(4, rng=0))
        sw.step(
            _lane(4, make_packet(0, (0, 1, 2), 0), make_packet(1, (0, 1), 0)), 0
        )
        sw.step(_lane(4, make_packet(0, (3,), 1), make_packet(1, (2, 3), 1)), 1)
        sw.check_invariants()
        assert sw.total_backlog() == 8 - sw.cells_delivered > 0
        sw._backlog += 1
        with pytest.raises(SchedulingError, match="backlog counter drift"):
            sw.check_invariants()
        sw._backlog -= 1
        for slot in range(2, 8):
            sw.step(_lane(4), slot)
        sw.check_invariants()
        assert sw.total_backlog() == 0


class TestTATRAIntegration:
    def test_tatra_on_switch_end_to_end(self):
        sw = SingleInputQueueSwitch(4, TATRAScheduler(4))
        pkts = [
            make_packet(0, (0, 1), 0),
            make_packet(1, (1, 2), 0),
            make_packet(2, (3,), 0),
        ]
        delivered = []
        delivered += sw.step(_lane(4, *pkts), 0).deliveries
        for slot in range(1, 6):
            delivered += sw.step(_lane(4), slot).deliveries
        assert len(delivered) == 5  # every (packet, dest) pair served
        assert sw.total_backlog() == 0
        # Each output received at most one cell per slot.
        per_slot_out = {(d.service_slot, d.output_port) for d in delivered}
        assert len(per_slot_out) == 5
