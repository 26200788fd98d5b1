"""Tests for the fanout-sensitivity harness and heatmap rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.fanout import run_fanout_sweep
from repro.report.heatmap import render_heatmap


class TestFanoutSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fanout_sweep(
            num_ports=8,
            fanouts=(1.5, 4.0, 8.0),
            loads=(0.5,),
            algorithms=("fifoms", "islip"),
            num_slots=2500,
            seed=3,
        )

    def test_grid_shapes(self, result):
        grid = result.metric_grid("fifoms", "output_delay")
        assert grid.shape == (3, 1)
        assert np.isfinite(grid).all()

    def test_advantage_grows_with_fanout(self, result):
        adv = result.advantage_grid("output_delay")
        assert adv[1, 0] > adv[0, 0]
        assert adv[1, 0] > 1.5  # fanout 4: iSLIP pays at least 1.5x
        assert adv[2, 0] > adv[0, 0]
        assert adv[2, 0] >= 2.0  # fanout 8: at least 2x

    def test_fifoms_delay_flat_in_fanout(self, result):
        """FIFOMS rides the crossbar's native fanout: its delay moves at
        most 2.5x from mean fanout 1.5 to 8."""
        grid = result.metric_grid("fifoms", "output_delay")
        assert grid.max() <= grid.min() * 2.5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_fanout_sweep(num_ports=8, fanouts=(), loads=(0.5,))
        with pytest.raises(ConfigurationError):
            run_fanout_sweep(num_ports=8, fanouts=(16.0,), loads=(0.5,))
        with pytest.raises(ConfigurationError):
            run_fanout_sweep(num_ports=8, fanouts=(0.0,), loads=(0.5,))


class TestRenderHeatmap:
    def test_basic_render(self):
        grid = np.array([[1.0, 2.0], [3.0, 4.0]])
        text = render_heatmap(
            grid,
            row_labels=["a", "b"],
            col_labels=["x", "y"],
            title="T",
            ascii_only=True,
        )
        assert text.startswith("T")
        assert "scale:" in text
        assert "4.00" in text and "1.00" in text
        # Darkest shade on the max cell, lightest on the min.
        assert "#4.00" in text
        assert " 1.00" in text

    def test_nan_renders_dot(self):
        grid = np.array([[np.nan, 1.0]])
        text = render_heatmap(
            grid, row_labels=["r"], col_labels=["x", "y"], ascii_only=True
        )
        assert "." in text

    def test_compact_form(self):
        grid = np.array([[0.0, 10.0]])
        text = render_heatmap(
            grid,
            row_labels=["r"],
            col_labels=["x", "y"],
            ascii_only=True,
            show_values=False,
        )
        assert "#" in text and "10.0" not in text

    def test_constant_grid(self):
        grid = np.full((2, 2), 5.0)
        text = render_heatmap(
            grid, row_labels=[1, 2], col_labels=[3, 4], ascii_only=True
        )
        assert "5.00" in text

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            render_heatmap(
                np.zeros((2, 2)), row_labels=["a"], col_labels=["x", "y"]
            )
        with pytest.raises(ConfigurationError):
            render_heatmap(np.zeros(3), row_labels=["a"], col_labels=["x"])
