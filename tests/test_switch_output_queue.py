"""Unit tests for the output-queued (OQFIFO) switch."""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError
from repro.sanitize import SanitizerError, SanitizerSuite
from repro.switch.output_queue import OutputQueuedSwitch

from conftest import make_packet


def _lane(n, *pkts):
    lanes = [None] * n
    for p in pkts:
        lanes[p.input_port] = p
    return lanes


class TestOQFIFO:
    def test_multicast_replicated_to_all_outputs_in_arrival_slot(self):
        sw = OutputQueuedSwitch(4)
        r = sw.step(_lane(4, make_packet(0, (0, 1, 3), 0)), 0)
        assert sorted(d.output_port for d in r.deliveries) == [0, 1, 3]
        assert all(d.delay == 1 for d in r.deliveries)

    def test_speedup_n_absorbs_all_inputs_in_one_slot(self):
        """All N inputs hit the same output simultaneously; the OQ switch
        accepts every cell at once and drains them FIFO, one per slot."""
        n = 4
        sw = OutputQueuedSwitch(n)
        pkts = [make_packet(i, (0,), 0) for i in range(n)]
        r0 = sw.step(_lane(n, *pkts), 0)
        assert len(r0.deliveries) == 1
        assert sw.queue_sizes()[0] == n - 1
        delays = [d.delay for d in r0.deliveries]
        for slot in range(1, n):
            r = sw.step(_lane(n), slot)
            delays += [d.delay for d in r.deliveries]
        assert sorted(delays) == [1, 2, 3, 4]
        assert sw.total_backlog() == 0

    def test_fifo_order_per_output(self):
        sw = OutputQueuedSwitch(2)
        first = make_packet(0, (1,), 0)
        second = make_packet(1, (1,), 0)
        served = []
        served += sw.step(_lane(2, first, second), 0).deliveries
        served += sw.step(_lane(2), 1).deliveries
        # Arrival order within a slot = input-port order.
        assert [d.packet.packet_id for d in served] == [
            first.packet_id,
            second.packet_id,
        ]

    def test_work_conservation(self):
        """An output is idle only when its queue is empty."""
        sw = OutputQueuedSwitch(2)
        sw.step(_lane(2, make_packet(0, (0, 1), 0)), 0)
        r = sw.step(_lane(2), 1)
        assert r.deliveries == []  # queues drained -> idle is legitimate

    def test_queue_metric_at_outputs(self):
        sw = OutputQueuedSwitch(3)
        sw.step(
            _lane(3, make_packet(0, (2,), 0), make_packet(1, (2,), 0)), 0
        )
        assert sw.queue_sizes() == [0, 0, 1]

    def test_invariants(self):
        sw = OutputQueuedSwitch(3)
        sw.step(_lane(3, make_packet(0, (0, 1, 2), 0)), 0)
        sw.check_invariants()


class TestFifoViolationIsAReproError:
    """A FIFO-order violation must surface as a SchedulingError so the
    sanitizer's deep pass (which catches ReproError only) turns it into
    a ``state_cross`` violation instead of dying on a bare assertion."""

    @staticmethod
    def _reordered_switch():
        sw = OutputQueuedSwitch(3)
        # Four cells for output 1 over two slots; one is served per
        # slot, so two with different arrival slots stay queued.
        sw.step(_lane(3, *(make_packet(i, (1,), 0) for i in range(3))), 0)
        sw.step(_lane(3, make_packet(0, (1,), 1)), 1)
        assert [p.arrival_slot for p in sw.queues[1]] == [0, 1]
        sw.queues[1].reverse()
        return sw

    def test_check_invariants_raises_scheduling_error(self):
        with pytest.raises(SchedulingError, match="output queue 1 not FIFO-ordered"):
            self._reordered_switch().check_invariants()

    def test_record_mode_records_state_cross_violation(self):
        suite = SanitizerSuite()
        suite.attach(self._reordered_switch(), algorithm="oqfifo")
        with pytest.raises(SanitizerError, match="not FIFO-ordered"):
            suite.finish()
        assert [v.checker for v in suite.violations] == ["state_cross"]
        assert "SchedulingError" in str(suite.violations[0].to_dict())

    def test_hard_mode_raises_sanitizer_error(self):
        suite = SanitizerSuite(hard_fail=True)
        suite.attach(self._reordered_switch(), algorithm="oqfifo")
        with pytest.raises(SanitizerError, match="not FIFO-ordered"):
            suite.finish()
