"""Tests for mixed, hotspot and trace traffic models."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError, TrafficError
from repro.traffic.bernoulli import BernoulliMulticastTraffic
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.mixed import MixedTraffic
from repro.traffic.trace import TraceTraffic, record_trace

from conftest import make_packet


class TestMixed:
    def test_unicast_fraction_respected(self):
        tr = MixedTraffic(8, p=1.0, unicast_fraction=0.5, b=0.4, rng=0)
        uni = multi = 0
        for _ in range(2000):
            for pkt in tr.next_slot():
                if pkt.fanout == 1:
                    uni += 1
                else:
                    multi += 1
        assert uni / (uni + multi) == pytest.approx(0.5, abs=0.03)

    def test_multicast_class_has_fanout_ge_2(self):
        tr = MixedTraffic(8, p=1.0, unicast_fraction=0.0, b=0.3, rng=1)
        for _ in range(200):
            for pkt in tr.next_slot():
                assert pkt.fanout >= 2

    def test_average_fanout_formula(self):
        tr = MixedTraffic(16, p=1.0, unicast_fraction=0.3, b=0.2, rng=2)
        for _ in range(4000):
            tr.next_slot()
        measured = tr.cells_generated / tr.packets_generated
        assert measured == pytest.approx(tr.average_fanout, rel=0.03)

    def test_pure_unicast_limit(self):
        tr = MixedTraffic(8, p=0.4, unicast_fraction=1.0, b=0.3)
        assert tr.average_fanout == 1.0
        assert tr.effective_load == pytest.approx(0.4)

    def test_one_port_multicast_is_refused_not_hung(self):
        """A 1-port switch has no 2-destination packet: generating one
        used to spin forever, so the regression runs under a timeout."""
        code = (
            "from repro.traffic.mixed import MixedTraffic\n"
            "MixedTraffic(1, p=1.0, unicast_fraction=0.0, b=0.5, rng=0).next_slot()\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode != 0
        assert "ConfigurationError" in proc.stderr
        with pytest.raises(ConfigurationError):
            MixedTraffic(1, p=0.5, unicast_fraction=0.9, b=0.5)

    def test_one_port_pure_unicast_still_works(self):
        tr = MixedTraffic(1, p=1.0, unicast_fraction=1.0, b=0.5, rng=0)
        assert [pkt.destinations for pkt in tr.next_slot()] == [(0,)]
        assert tr.average_fanout == 1.0


class TestHotspot:
    def test_hot_outputs_receive_more(self):
        tr = HotspotTraffic(
            8, p=1.0, max_fanout=2, num_hotspots=1, hotspot_fraction=0.6, rng=0
        )
        counts = np.zeros(8)
        for _ in range(3000):
            for pkt in tr.next_slot():
                for d in pkt.destinations:
                    counts[d] += 1
        assert counts[0] > 3 * counts[1:].mean()

    def test_probabilities_normalized(self):
        tr = HotspotTraffic(8, p=0.5, max_fanout=2, hotspot_fraction=0.3)
        assert tr.destination_probs.sum() == pytest.approx(1.0)

    def test_hottest_output_load_exceeds_average(self):
        tr = HotspotTraffic(
            16, p=0.2, max_fanout=4, num_hotspots=2, hotspot_fraction=0.5
        )
        # The skewed marginal makes the hot output busier than the
        # port-average effective load.
        assert tr.hottest_output_load() > tr.effective_load


class TestTrace:
    def test_replays_exact_slots(self):
        pkts = [make_packet(0, (1,), 0), make_packet(2, (0, 3), 2)]
        tr = TraceTraffic(4, pkts)
        lane0 = tr.next_slot()
        assert lane0[0] is pkts[0]
        assert tr.next_slot() == [None] * 4
        lane2 = tr.next_slot()
        assert lane2[2] is pkts[1]
        assert tr.horizon == 3

    def test_double_booking_rejected(self):
        with pytest.raises(TrafficError):
            TraceTraffic(4, [make_packet(0, (1,), 0), make_packet(0, (2,), 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(TrafficError):
            TraceTraffic(2, [make_packet(0, (5,), 0)])
        with pytest.raises(TrafficError):
            TraceTraffic(2, [make_packet(3, (1,), 0)])

    def test_record_then_replay_identical(self):
        model = BernoulliMulticastTraffic(4, p=0.6, b=0.5, rng=11)
        packets = record_trace(model, 40)
        replay = TraceTraffic(4, packets)
        seen = []
        for _ in range(40):
            seen.extend(p for p in replay.next_slot() if p is not None)
        assert seen == sorted(packets, key=lambda p: (p.arrival_slot, p.input_port))

    def test_record_negative_slots_rejected(self):
        with pytest.raises(TrafficError):
            record_trace(BernoulliMulticastTraffic(4, p=0.5, b=0.5), -1)

    def test_load_properties(self):
        pkts = [make_packet(0, (0, 1), 0), make_packet(1, (1,), 1)]
        tr = TraceTraffic(2, pkts)
        assert tr.average_fanout == pytest.approx(1.5)
        assert tr.effective_load == pytest.approx(3 / (2 * 2))


def _counted_models():
    from repro.frames.adapter import FrameTrafficAdapter, FrameWorkload
    from repro.qos.traffic import PriorityTagger
    from repro.traffic.burst import BurstMulticastTraffic
    from repro.traffic.uniform import UniformFanoutTraffic

    yield BernoulliMulticastTraffic(6, p=0.6, b=0.3, rng=1)
    yield UniformFanoutTraffic(6, p=0.6, max_fanout=1, rng=2)
    yield UniformFanoutTraffic(6, p=0.6, max_fanout=3, rng=3)
    yield BurstMulticastTraffic(6, e_off=3.0, e_on=3.0, b=0.3, rng=4)
    yield MixedTraffic(6, p=0.6, unicast_fraction=0.5, b=0.4, rng=5)
    yield HotspotTraffic(
        6, p=0.6, max_fanout=2, num_hotspots=1, hotspot_fraction=0.5, rng=6
    )
    yield TraceTraffic(
        6, record_trace(BernoulliMulticastTraffic(6, p=0.6, b=0.3, rng=1), 40)
    )
    yield PriorityTagger(
        BernoulliMulticastTraffic(6, p=0.6, b=0.3, rng=7), [1, 1], rng=8
    )
    yield FrameTrafficAdapter(
        FrameWorkload(6, frame_rate=0.1, mean_size=3.0, b=0.4, max_size=8, rng=9)
    )


@pytest.mark.parametrize("model", _counted_models(), ids=lambda m: type(m).__name__)
def test_every_model_counts_what_it_emits(model):
    """``_generate`` returns through ``_arrivals`` or ``_counted`` (there
    is no counting pass in ``next_slot``), so every subclass is held to
    the counters here."""
    packets = cells = 0
    for _ in range(40):
        for pkt in model.next_slot():
            if pkt is not None:
                packets += 1
                cells += pkt.fanout
    assert packets > 0
    assert model.packets_generated == packets
    assert model.cells_generated == cells
