"""Priority tagging of any traffic model.

Wraps a base :class:`~repro.traffic.base.TrafficModel` and stamps each
generated packet with a service class drawn from a fixed distribution
(e.g. 10% voice / 30% video / 60% best-effort). The wrapper is itself a
TrafficModel, so the engine and the sweep harness drive it unchanged.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

import numpy as np

from repro.errors import ConfigurationError
from repro.packet import Packet
from repro.traffic.base import TrafficModel
from repro.utils.rng import make_rng

__all__ = ["PriorityTagger"]


class PriorityTagger(TrafficModel):
    """Stamp packets from ``base`` with random priorities."""

    def __init__(
        self,
        base: TrafficModel,
        class_shares: Sequence[float],
        *,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(base.num_ports, rng=rng)
        shares = np.asarray(class_shares, dtype=np.float64)
        if shares.ndim != 1 or len(shares) < 1:
            raise ConfigurationError("class_shares must be a non-empty 1-D sequence")
        if (shares < 0).any() or shares.sum() <= 0:
            raise ConfigurationError(f"invalid class shares {class_shares}")
        self.base = base
        self.class_probs = shares / shares.sum()
        self.num_classes = len(shares)
        self.packets_per_class = [0] * self.num_classes
        self._class_rng = make_rng(rng)

    # ------------------------------------------------------------------ #
    def _generate(self, slot: int) -> list[Packet | None]:
        arrivals = self.base.next_slot()
        out: list[Packet | None] = [None] * self.num_ports
        for i, pkt in enumerate(arrivals):
            if pkt is None:
                continue
            cls = int(
                self._class_rng.choice(self.num_classes, p=self.class_probs)
            )
            self.packets_per_class[cls] += 1
            out[i] = replace(pkt, priority=cls, packet_id=pkt.packet_id)
        return self._counted(out)

    # ------------------------------------------------------------------ #
    @property
    def average_fanout(self) -> float:
        return self.base.average_fanout

    @property
    def effective_load(self) -> float:
        return self.base.effective_load
