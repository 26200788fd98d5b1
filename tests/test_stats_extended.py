"""Tests for extended statistics: histograms and multicast service."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.packet import Packet
from repro.stats.histogram import DelayHistogram
from repro.stats.multicast import MulticastServiceTracker


class TestDelayHistogram:
    def test_mean_and_max(self):
        h = DelayHistogram()
        for d in (1, 1, 2, 4):
            h.record(d)
        assert h.count == 4
        assert h.mean == pytest.approx(2.0)
        assert h.max == 4

    def test_percentiles_nearest_rank(self):
        h = DelayHistogram()
        for d in range(1, 101):  # 1..100 once each
            h.record(d)
        assert h.percentile(50) == 50
        assert h.percentile(99) == 99
        assert h.percentile(100) == 100
        assert h.percentile(1) == 1

    def test_growth_beyond_initial_bins(self):
        h = DelayHistogram(initial_bins=2)
        h.record(1000)
        assert h.max == 1000
        assert h.percentile(100) == 1000

    def test_bulk_count(self):
        h = DelayHistogram()
        h.record(3, count=10)
        assert h.count == 10
        assert h.mean == pytest.approx(3.0)
        assert h.variance == pytest.approx(0.0)

    def test_cdf(self):
        h = DelayHistogram()
        h.record(0)
        h.record(2)
        xs, cdf = h.cdf()
        assert list(xs) == [0, 1, 2]
        assert cdf[0] == pytest.approx(0.5)
        assert cdf[-1] == pytest.approx(1.0)

    def test_merge(self):
        a, b = DelayHistogram(), DelayHistogram()
        a.record(1)
        b.record(5, count=3)
        m = a.merge(b)
        assert m.count == 4
        assert m.max == 5

    def test_errors(self):
        h = DelayHistogram()
        with pytest.raises(ConfigurationError):
            h.record(-1)
        with pytest.raises(ConfigurationError):
            h.record(1, count=0)
        with pytest.raises(ConfigurationError):
            h.percentile(0)
        with pytest.raises(ConfigurationError):
            h.percentile(50)  # empty
        with pytest.raises(ConfigurationError):
            DelayHistogram(initial_bins=0)

    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=300))
    def test_matches_numpy_statistics(self, delays):
        h = DelayHistogram()
        for d in delays:
            h.record(d)
        assert h.mean == pytest.approx(np.mean(delays))
        assert h.variance == pytest.approx(np.var(delays))
        assert h.max == max(delays)
        # Nearest-rank P50 equals the element at ceil(n/2) of the sorted list.
        expected = sorted(delays)[int(np.ceil(len(delays) / 2)) - 1]
        assert h.percentile(50) == expected


class TestMulticastServiceTracker:
    def _deliver(self, t, pkt, output, slot):
        t.on_service(pkt, 1, slot)

    def test_whole_fanout_one_slot(self):
        t = MulticastServiceTracker()
        p = Packet(0, (0, 1, 2), 0)
        t.on_arrival(p.packet_id, 0, 3)
        for j in (0, 1, 2):
            self._deliver(t, p, j, 0)
        assert t.completed == 1
        assert t.split_ratio == 0.0
        assert t.average_service_slots == 1.0

    def test_split_packet(self):
        t = MulticastServiceTracker()
        p = Packet(0, (0, 1), 0)
        t.on_arrival(p.packet_id, 0, 2)
        self._deliver(t, p, 0, 0)
        self._deliver(t, p, 1, 3)
        assert t.split_packets == 1
        assert t.average_service_slots == 2.0
        assert t.max_service_slots == 2

    def test_unicast_not_counted(self):
        t = MulticastServiceTracker()
        p = Packet(0, (1,), 0)
        t.on_arrival(p.packet_id, 0, 1)
        self._deliver(t, p, 1, 0)
        assert t.completed == 0
        assert t.completed_unicast == 1
        import math

        assert math.isnan(t.split_ratio)

    def test_warmup_gating(self):
        t = MulticastServiceTracker(warmup_slot=10)
        p = Packet(0, (0, 1), 2)
        t.on_arrival(p.packet_id, 2, 2)
        self._deliver(t, p, 0, 2)
        self._deliver(t, p, 1, 2)
        assert t.completed == 0

    def test_errors(self):
        t = MulticastServiceTracker()
        p = Packet(0, (0,), 0)
        with pytest.raises(SimulationError):
            self._deliver(t, p, 0, 0)  # unknown
        t.on_arrival(p.packet_id, 0, 1)
        with pytest.raises(SimulationError):
            t.on_arrival(p.packet_id, 0, 1)


class TestExtendedCollectorIntegration:
    def test_extra_metrics_via_runner(self):
        from repro.sim.config import SimulationConfig
        from repro.sim.runner import run_simulation

        cfg = SimulationConfig(
            num_slots=4000, warmup_fraction=0.5, extended_stats=True,
            stability_window=0,
        )
        s = run_simulation(
            "fifoms", 8, {"model": "bernoulli", "p": 0.3, "b": 0.3},
            seed=2, config=cfg,
        )
        assert "delay_p99" in s.extra
        assert s.extra["delay_p50"] <= s.extra["delay_p99"] <= s.extra["delay_max"]
        assert "split_ratio" in s.extra
        assert 0.0 <= s.extra["split_ratio"] <= 1.0
        assert s.extra["avg_service_slots"] >= 1.0

    def test_fifoms_tail_beats_greedy(self):
        """What the timestamps buy on the identical queue structure is
        the *tail*: the greedy pointer scheduler hands the favored input
        its whole fanout (so it splits slightly less) but starves whoever
        the pointer neglects — FIFOMS's FIFO arbitration keeps p99 and
        worst-case delay decisively lower at high load."""
        from repro.sim.config import SimulationConfig
        from repro.sim.runner import run_simulation

        cfg = SimulationConfig(
            num_slots=8000, warmup_fraction=0.5, extended_stats=True,
            stability_window=0,
        )
        spec = {"model": "bernoulli", "p": 0.26, "b": 0.2}  # load ~0.85
        f = run_simulation("fifoms", 16, spec, seed=3, config=cfg)
        g = run_simulation("greedy-mcast", 16, spec, seed=3, config=cfg)
        assert f.extra["delay_p99"] <= g.extra["delay_p99"]
        assert f.extra["delay_max"] <= g.extra["delay_max"] * 0.7

    def test_fifoms_delay_fairer_than_greedy(self):
        """Per-input delay fairness on one recorded 8-port trace: Jain's
        index over each input's inverse mean delay (1.0 = equal delays,
        1/n = one input captures everything), measured after warmup.
        FIFOMS's FIFO arbitration is at least as fair as the greedy
        pointer scheduler on the same queue structure."""
        from repro.schedulers.registry import make_switch
        from repro.traffic.bernoulli import BernoulliMulticastTraffic
        from repro.traffic.trace import TraceTraffic, record_trace

        n, slots = 8, 6000
        packets = record_trace(
            BernoulliMulticastTraffic(n, p=0.26, b=0.4, rng=9), slots
        )
        scores = {}
        for alg in ("fifoms", "greedy-mcast"):
            switch = make_switch(alg, n, rng=1)
            traffic = TraceTraffic(n, packets)
            delay_sums = np.zeros(n)
            counts = np.zeros(n)
            for slot in range(slots):
                for d in switch.step(traffic.next_slot(), slot).deliveries:
                    if d.packet.arrival_slot >= slots // 2:
                        delay_sums[d.packet.input_port] += d.delay
                        counts[d.packet.input_port] += 1
            assert counts.all()
            inverse = counts / delay_sums
            scores[alg] = inverse.sum() ** 2 / (n * (inverse**2).sum())
        assert scores["fifoms"] >= scores["greedy-mcast"] - 0.02
