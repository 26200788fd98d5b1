"""Tests for the port-count scaling harness."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments.scaling import run_scaling


class TestRunScaling:
    def test_grid_shape(self):
        points = run_scaling(
            ("fifoms", "oqfifo"), (4, 8), load=0.5, mean_fanout=2.0,
            num_slots=600, seed=1,
        )
        assert len(points) == 4
        assert {(p.algorithm, p.num_ports) for p in points} == {
            ("fifoms", 4), ("fifoms", 8), ("oqfifo", 4), ("oqfifo", 8),
        }

    def test_load_held_constant_across_sizes(self):
        points = run_scaling(
            ("oqfifo",), (4, 8, 12), load=0.6, mean_fanout=2.0,
            num_slots=2_000, seed=2,
        )
        for p in points:
            assert p.summary.offered_load == pytest.approx(0.6, abs=0.08)

    def test_accessors(self):
        (point,) = run_scaling(
            ("fifoms",), (4,), load=0.4, mean_fanout=2.0, num_slots=500, seed=0
        )
        assert point.output_delay > 0
        assert point.rounds >= 1.0

    def test_rounds_sublinear_and_delay_flat_in_n(self):
        """At fixed load 0.7 and mean fanout 4: average rounds stay below
        2 log2 N + 2 (far under the worst case N), and FIFOMS delay moves
        at most 2x across the sizes."""
        sizes = (8, 16, 32)
        points = run_scaling(
            ("fifoms", "islip"), sizes, load=0.7, mean_fanout=4.0,
            num_slots=2_000, seed=2004,
        )
        for p in points:
            assert p.rounds < 2 * math.log2(p.num_ports) + 2, p
        delays = [p.output_delay for p in points if p.algorithm == "fifoms"]
        assert len(delays) == len(sizes)
        assert max(delays) <= min(delays) * 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"algorithms": (), "sizes": (4,)},
            {"algorithms": ("fifoms",), "sizes": ()},
            {"algorithms": ("fifoms",), "sizes": (1,)},
            {"algorithms": ("fifoms",), "sizes": (4,), "mean_fanout": 8.0},
        ],
    )
    def test_invalid(self, kwargs):
        kw = {"load": 0.5, "num_slots": 100, "mean_fanout": 2.0}
        kw.update(kwargs)
        algorithms = kw.pop("algorithms")
        sizes = kw.pop("sizes")
        with pytest.raises(ConfigurationError):
            run_scaling(algorithms, sizes, **kw)
