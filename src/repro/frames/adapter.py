"""Frame workloads and the TrafficModel adapter.

:class:`FrameWorkload` generates variable-size multicast frames (bounded
geometric sizes — the classic packet-length model — with the Bernoulli
destination vector of §V.A); :class:`FrameTrafficAdapter` wraps a
workload + :class:`~repro.frames.segmentation.FrameSegmenter` as a
standard :class:`~repro.traffic.base.TrafficModel`, so *any* switch in
the library can carry framed traffic unchanged. Deliveries are fed back
via :meth:`FrameTrafficAdapter.on_deliveries`, which drives reassembly
and the frame-level delay tracker.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.frames.reassembly import FrameDelayTracker, FrameReassembler
from repro.frames.segmentation import Frame, FrameSegmenter
from repro.packet import Delivery, Packet
from repro.traffic.base import TrafficModel
from repro.utils.rng import make_rng
from repro.utils.validation import check_positive, check_probability

__all__ = ["FrameWorkload", "FrameTrafficAdapter"]


class FrameWorkload:
    """Random variable-size multicast frames.

    Per input per slot, with probability ``frame_rate`` a new frame
    arrives whose size (in cells) is Geometric(1/mean_size) on {1, 2, ...}
    — the classic packet-length model, truncated at ``max_size`` — and
    whose destination vector includes each output w.p. ``b`` (resampled
    if empty).
    """

    def __init__(
        self,
        num_ports: int,
        *,
        frame_rate: float,
        mean_size: float,
        b: float,
        max_size: int = 64,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        self.num_ports = num_ports
        self.frame_rate = check_probability(frame_rate, "frame_rate")
        self.mean_size = check_positive(mean_size, "mean_size")
        if self.mean_size < 1.0:
            raise ConfigurationError(f"mean_size must be >= 1 cell, got {mean_size}")
        if max_size < 1:
            raise ConfigurationError(f"max_size must be >= 1, got {max_size}")
        self.max_size = max_size
        self.b = check_probability(b, "b", allow_zero=False)
        self.rng = make_rng(rng)

    def frames_for_slot(self, slot: int) -> Iterable[Frame]:
        """Yield the frames arriving at ``slot`` (one per active input)."""
        n = self.num_ports
        active = self.rng.random(n) < self.frame_rate
        for i in np.nonzero(active)[0]:
            if self.mean_size <= 1.0:
                size = 1
            else:
                # Geometric(p) on {1, 2, ...} has mean 1/p.
                size = int(self.rng.geometric(1.0 / self.mean_size))
                size = min(max(size, 1), self.max_size)
            mask = self.rng.random(n) < self.b
            while not mask.any():
                mask = self.rng.random(n) < self.b
            yield Frame(
                input_port=int(i),
                destinations=tuple(int(j) for j in np.nonzero(mask)[0]),
                size_cells=size,
                arrival_slot=slot,
            )

    @property
    def offered_cell_load(self) -> float:
        """Approximate cells/input/slot offered (must stay < 1: a line
        card serializes at one cell per slot)."""
        fanout = self.b * self.num_ports / (1 - (1 - self.b) ** self.num_ports)
        return self.frame_rate * self.mean_size * fanout


class FrameTrafficAdapter(TrafficModel):
    """Drives a cell switch from a frame workload, with reassembly."""

    def __init__(
        self,
        workload: FrameWorkload,
        *,
        warmup_slot: int = 0,
    ) -> None:
        super().__init__(workload.num_ports, rng=0)
        self.workload = workload
        self.segmenter = FrameSegmenter(workload.num_ports)
        self.reassembler = FrameReassembler(self.segmenter)
        self.frame_delays = FrameDelayTracker(warmup_slot)

    # ------------------------------------------------------------------ #
    def _generate(self, slot: int) -> list[Packet | None]:
        for frame in self.workload.frames_for_slot(slot):
            self.segmenter.offer(frame)
        return self._counted(self.segmenter.emit(slot))

    def on_deliveries(self, deliveries: Iterable[Delivery]) -> list[Frame]:
        """Feed switch deliveries; returns frames completed this call."""
        completed = []
        for d in deliveries:
            done = self.reassembler.on_delivery(d)
            if done is not None:
                frame, slots = done
                self.frame_delays.on_frame_complete(frame, slots)
                completed.append(frame)
        return completed

    # ------------------------------------------------------------------ #
    @property
    def average_fanout(self) -> float:
        n, b = self.num_ports, self.workload.b
        return b * n / (1 - (1 - b) ** n)

    @property
    def effective_load(self) -> float:
        return min(self.workload.offered_cell_load, 1.0)

    @property
    def backlogged_cells(self) -> int:
        """Cells generated but not yet admitted into the switch."""
        return self.segmenter.pending_cells()
