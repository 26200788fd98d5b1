"""Queue-occupancy tracking (paper's average / maximum queue size).

Samples the per-port queue sizes once per slot. The *average queue size*
is the time-and-port average over post-warmup slots; the *maximum queue
size* is the largest single-port occupancy seen post-warmup ("the maximum
buffer space for an algorithm to work without loss of packets").
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import mul

__all__ = ["OccupancyTracker"]


class OccupancyTracker:
    """Per-slot sampler of queue sizes."""

    def __init__(self, warmup_slot: int = 0) -> None:
        self.warmup_slot = warmup_slot
        self.samples = 0  # number of (slot, port) samples
        self.size_sum = 0
        self.size_sq_sum = 0
        self.max_size = 0
        self._last_sizes: tuple[int, ...] = ()

    def on_slot(self, slot: int, queue_sizes: Sequence[int]) -> None:
        """Record the end-of-slot queue sizes."""
        sizes = self._last_sizes = tuple(queue_sizes)
        if slot < self.warmup_slot or not sizes:
            return
        self.samples += len(sizes)
        self.size_sum += sum(sizes)
        self.size_sq_sum += sum(map(mul, sizes, sizes))
        peak = max(sizes)
        if peak > self.max_size:
            self.max_size = peak

    # ------------------------------------------------------------------ #
    @property
    def average_queue_size(self) -> float:
        """Mean per-port occupancy over post-warmup slots. NaN if empty."""
        if self.samples == 0:
            return float("nan")
        return self.size_sum / self.samples

    @property
    def queue_size_variance(self) -> float:
        if self.samples == 0:
            return float("nan")
        mean = self.average_queue_size
        return self.size_sq_sum / self.samples - mean * mean

    @property
    def max_queue_size(self) -> int:
        return self.max_size

    @property
    def last_sizes(self) -> tuple[int, ...]:
        """Most recent per-port sample (stability diagnostics)."""
        return self._last_sizes
