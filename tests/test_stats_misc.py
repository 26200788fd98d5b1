"""Unit tests for occupancy, convergence, throughput trackers and the
summary record."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.convergence import ConvergenceTracker
from repro.stats.occupancy import OccupancyTracker
from repro.stats.summary import SimulationSummary
from repro.stats.throughput import ThroughputTracker


class TestOccupancy:
    def test_time_and_port_average(self):
        t = OccupancyTracker()
        t.on_slot(0, [2, 0])
        t.on_slot(1, [4, 2])
        assert t.average_queue_size == pytest.approx((2 + 0 + 4 + 2) / 4)
        assert t.max_queue_size == 4

    def test_warmup_gating(self):
        t = OccupancyTracker(warmup_slot=1)
        t.on_slot(0, [100, 100])
        t.on_slot(1, [1, 3])
        assert t.average_queue_size == pytest.approx(2.0)
        assert t.max_queue_size == 3
        assert t.last_sizes == (1, 3)

    def test_variance(self):
        t = OccupancyTracker()
        t.on_slot(0, [0, 4])
        assert t.queue_size_variance == pytest.approx(4.0)

    def test_nan_empty(self):
        assert math.isnan(OccupancyTracker().average_queue_size)

    @settings(max_examples=200, deadline=None)
    @given(
        warmup=st.integers(0, 6),
        slots=st.lists(
            # Few distinct sizes, so maxima repeat within and across slots.
            st.lists(st.integers(0, 5) | st.integers(0, 10**6), max_size=12),
            max_size=12,
        ),
    )
    def test_matches_the_per_port_loop(self, warmup, slots):
        """``on_slot`` keeps the exact ints of a per-port loop: empty
        size lists, warmup slots and repeated maxima included."""
        t = OccupancyTracker(warmup_slot=warmup)
        samples = size_sum = size_sq_sum = max_size = 0
        last: tuple[int, ...] = ()
        for slot, sizes in enumerate(slots):
            t.on_slot(slot, sizes)
            last = tuple(sizes)
            if slot >= warmup:
                for s in sizes:
                    samples += 1
                    size_sum += s
                    size_sq_sum += s * s
                    if s > max_size:
                        max_size = s
            assert (t.samples, t.size_sum, t.size_sq_sum, t.max_size) == (
                samples, size_sum, size_sq_sum, max_size
            )
            assert t.last_sizes == last
            assert all(
                type(v) is int
                for v in (t.samples, t.size_sum, t.size_sq_sum, t.max_size)
            )


class TestConvergence:
    def test_idle_slots_excluded(self):
        t = ConvergenceTracker()
        t.on_slot(0, 0, requests_made=False)
        t.on_slot(1, 2, requests_made=True)
        t.on_slot(2, 4, requests_made=True)
        assert t.average_rounds == pytest.approx(3.0)
        assert t.max_rounds == 4
        assert t.histogram == {2: 1, 4: 1}

    def test_warmup(self):
        t = ConvergenceTracker(warmup_slot=5)
        t.on_slot(0, 9, requests_made=True)
        t.on_slot(5, 1, requests_made=True)
        assert t.average_rounds == pytest.approx(1.0)

    def test_nan_empty(self):
        assert math.isnan(ConvergenceTracker().average_rounds)


class TestThroughput:
    def test_loads(self):
        t = ThroughputTracker(num_ports=4)
        t.on_slot(0, arrived_cells=8, arrived_packets=3, delivered_cells=4)
        t.on_slot(1, arrived_cells=0, arrived_packets=0, delivered_cells=4)
        assert t.offered_load == pytest.approx(8 / 8)
        assert t.carried_load == pytest.approx(8 / 8)
        assert t.delivery_ratio == pytest.approx(1.0)
        assert t.packets_offered == 3

    def test_warmup(self):
        t = ThroughputTracker(num_ports=2, warmup_slot=1)
        t.on_slot(0, 100, 100, 100)
        t.on_slot(1, 2, 1, 2)
        assert t.cells_offered == 2

    def test_nan_empty(self):
        t = ThroughputTracker(num_ports=2)
        assert math.isnan(t.offered_load)
        assert math.isnan(t.delivery_ratio)


def _summary(**over) -> SimulationSummary:
    base = dict(
        algorithm="fifoms",
        num_ports=16,
        seed=0,
        slots_run=100,
        warmup_slots=50,
        average_input_delay=2.0,
        average_output_delay=1.5,
        average_queue_size=0.25,
        max_queue_size=7,
        average_rounds=1.2,
        max_rounds=3,
        offered_load=0.5,
        carried_load=0.5,
        delivery_ratio=1.0,
        packets_offered=100,
        cells_offered=300,
        cells_delivered=300,
        final_backlog=0,
        unstable=False,
    )
    base.update(over)
    return SimulationSummary(**base)


class TestSummary:
    def test_metric_lookup(self):
        s = _summary()
        assert s.metric("input_delay") == 2.0
        assert s.metric("max_queue") == 7.0
        assert s.metric("throughput") == 0.5
        with pytest.raises(KeyError):
            s.metric("bogus")

    def test_json_round_trip(self):
        s = _summary()
        data = json.loads(s.to_json())
        assert data["algorithm"] == "fifoms"
        assert data["max_queue_size"] == 7

    def test_json_nan_becomes_null(self):
        s = _summary(average_input_delay=float("nan"))
        data = json.loads(s.to_json())
        assert data["average_input_delay"] is None

    def test_frozen(self):
        with pytest.raises(AttributeError):
            _summary().algorithm = "x"  # type: ignore[misc]
