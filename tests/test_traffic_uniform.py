"""Unit/statistical tests for uniform-fanout traffic."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.traffic.uniform import UniformFanoutTraffic


class TestValidation:
    def test_bad_max_fanout(self):
        with pytest.raises(ConfigurationError):
            UniformFanoutTraffic(4, p=0.5, max_fanout=5)
        with pytest.raises(ConfigurationError):
            UniformFanoutTraffic(4, p=0.5, max_fanout=0)

    def test_bool_max_fanout_rejected(self):
        # bool is an int: True used to pass as max_fanout=1.
        with pytest.raises(ConfigurationError):
            UniformFanoutTraffic(4, p=0.5, max_fanout=True)


class TestGeneration:
    def test_unicast_mode(self):
        tr = UniformFanoutTraffic(8, p=1.0, max_fanout=1, rng=0)
        assert tr.is_unicast
        for _ in range(30):
            for pkt in tr.next_slot():
                assert pkt.fanout == 1

    def test_fanout_bounds_respected(self):
        tr = UniformFanoutTraffic(8, p=1.0, max_fanout=5, rng=1)
        fanouts = set()
        for _ in range(400):
            for pkt in tr.next_slot():
                fanouts.add(pkt.fanout)
                assert 1 <= pkt.fanout <= 5
        assert fanouts == {1, 2, 3, 4, 5}

    def test_destinations_distinct(self):
        tr = UniformFanoutTraffic(8, p=1.0, max_fanout=8, rng=2)
        for _ in range(100):
            for pkt in tr.next_slot():
                assert len(set(pkt.destinations)) == pkt.fanout


class TestStatistics:
    def test_mean_fanout(self):
        tr = UniformFanoutTraffic(16, p=1.0, max_fanout=8, rng=3)
        for _ in range(2000):
            tr.next_slot()
        measured = tr.cells_generated / tr.packets_generated
        assert measured == pytest.approx(4.5, rel=0.03)
        assert tr.average_fanout == 4.5

    def test_effective_load(self):
        tr = UniformFanoutTraffic(16, p=0.2, max_fanout=8)
        assert tr.effective_load == pytest.approx(0.2 * 4.5)

    def test_fanout_distribution_uniform(self):
        tr = UniformFanoutTraffic(8, p=1.0, max_fanout=4, rng=4)
        counts = np.zeros(5)
        for _ in range(3000):
            for pkt in tr.next_slot():
                counts[pkt.fanout] += 1
        shares = counts[1:] / counts.sum()
        assert np.allclose(shares, 0.25, atol=0.02)
