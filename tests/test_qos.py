"""Tests for the strict-priority QoS extension."""

from __future__ import annotations

import pytest

from repro.core.fifoms import TieBreak
from repro.errors import ConfigurationError, TrafficError
from repro.packet import Packet
from repro.qos.switch import PriorityMulticastVOQSwitch
from repro.qos.traffic import PriorityTagger
from repro.sim.runner import run_simulation
from repro.traffic.bernoulli import BernoulliMulticastTraffic


def _pkt(i, dests, slot, prio):
    return Packet(
        input_port=i, destinations=tuple(dests), arrival_slot=slot, priority=prio
    )


def _lane(n, *pkts):
    lanes = [None] * n
    for p in pkts:
        lanes[p.input_port] = p
    return lanes


def _class_delays(n, p, b, slots, warmup, seed):
    """Mean delay and delivery count per class, driving the switch
    directly so deliveries keep their class tags (30 % premium)."""
    import numpy as np

    base = BernoulliMulticastTraffic(n, p=p, b=b, rng=seed)
    tagger = PriorityTagger(base, [0.3, 0.7], rng=seed + 2)
    sw = PriorityMulticastVOQSwitch(n, 2, rng=np.random.default_rng(seed + 3))
    sums = [0.0, 0.0]
    counts = [0, 0]
    for slot in range(slots):
        result = sw.step(tagger.next_slot(), slot)
        if slot < warmup:
            continue
        for d in result.deliveries:
            sums[d.packet.priority] += d.delay
            counts[d.packet.priority] += 1
    return [s / c for s, c in zip(sums, counts)], counts


class TestStrictPriority:
    def _switch(self, n=4, classes=2):
        return PriorityMulticastVOQSwitch(
            n, classes, tie_break=TieBreak.LOWEST_INPUT
        )

    def test_high_class_beats_older_low_class(self):
        """An *older* best-effort cell loses a contended output to a
        *newer* premium cell — the defining strict-priority behaviour
        (and the opposite of classless FIFOMS)."""
        sw = self._switch()
        sw.step(_lane(4, _pkt(0, (1,), 0, prio=1)), 0)  # old, low class, queued?
        # Slot 0: low-class packet is alone -> served. Rebuild with real
        # contention: both arrive in the same slot at different inputs.
        sw = self._switch()
        low_old = _pkt(0, (1,), 0, 1)
        r0 = sw.step(_lane(4, low_old), 0)
        assert len(r0.deliveries) == 1  # sanity: alone it is served
        sw = self._switch()
        low = _pkt(0, (1,), 0, 1)
        sw.step(_lane(4, low), 0)  # ...but output 1 is free: served at 0
        # Force queued contention: two low-class packets stack on output 1
        # behind each other at input 0, then a high-class packet at input
        # 1 claims output 1 over the queued low-class one.
        sw = self._switch()
        sw.step(_lane(4, _pkt(0, (1,), 0, 1), _pkt(1, (1,), 0, 1)), 0)
        # One of them was served; one low-class cell (ts 0) still queued.
        high = _pkt(2, (1,), 1, 0)
        r1 = sw.step(_lane(4, high), 1)
        winners = {(d.packet.packet_id, d.output_port) for d in r1.deliveries}
        assert (high.packet_id, 1) in winners  # newer premium wins

    def test_low_class_uses_leftover_ports(self):
        """Strict priority is work-conserving: the low class rides the
        outputs the high class left idle in the same slot."""
        sw = self._switch()
        hi = _pkt(0, (0,), 0, 0)
        lo = _pkt(1, (2, 3), 0, 1)
        r = sw.step(_lane(4, hi, lo), 0)
        served = {(d.packet.priority, d.output_port) for d in r.deliveries}
        assert served == {(0, 0), (1, 2), (1, 3)}

    def test_same_input_one_cell_per_slot_across_classes(self):
        sw = self._switch()
        sw.step(_lane(4, _pkt(0, (0,), 0, 1)), 0)  # served immediately
        sw = self._switch()
        # Queue a low-class and a high-class packet at the same input by
        # arriving in consecutive slots while output is contended away.
        sw.step(_lane(4, _pkt(0, (1,), 0, 1), _pkt(1, (1,), 0, 0)), 0)
        # High class at input 1 won output 1; input 0's low cell queued.
        r1 = sw.step(_lane(4, _pkt(0, (2,), 1, 0)), 1)
        by_input = {}
        for d in r1.deliveries:
            by_input.setdefault(d.packet.input_port, set()).add(d.packet.packet_id)
        # Input 0 sent exactly one packet this slot (the high-class one
        # preempts; the low-class remains for slot 2).
        assert len(by_input.get(0, set())) == 1
        r2 = sw.step(_lane(4), 2)
        assert len(r2.deliveries) == 1  # the leftover low-class cell

    def test_class_bounds_checked(self):
        sw = self._switch(classes=2)
        with pytest.raises(TrafficError):
            sw.step(_lane(4, _pkt(0, (0,), 0, 5)), 0)
        with pytest.raises(ConfigurationError):
            PriorityMulticastVOQSwitch(4, 0)

    def test_conservation_and_invariants(self):
        sw = self._switch()
        offered = 0
        import numpy as np

        rng = np.random.default_rng(0)
        for slot in range(60):
            lanes = []
            for i in range(4):
                if rng.random() < 0.5:
                    dests = tuple(
                        int(x)
                        for x in rng.choice(4, size=int(rng.integers(1, 4)), replace=False)
                    )
                    lanes.append(_pkt(i, dests, slot, int(rng.integers(2))))
                    offered += len(set(dests))
            sw.step(_lane(4, *lanes), slot)
            sw.check_invariants()
        assert sw.cells_delivered + sw.total_backlog() == offered

    def test_queue_sizes_by_class(self):
        sw = self._switch()
        sw.step(
            _lane(4, _pkt(0, (1,), 0, 1), _pkt(1, (1,), 0, 1), _pkt(2, (1,), 0, 0)), 0
        )
        by_class = sw.queue_sizes_by_class()
        assert len(by_class) == 2
        # High class was served; two low-class packets contended, at
        # most one served -> at least one low-class cell queued.
        assert sum(by_class[1]) >= 1


class TestPriorityTagger:
    def test_shares_respected(self):
        base = BernoulliMulticastTraffic(8, p=1.0, b=0.3, rng=0)
        tagger = PriorityTagger(base, [0.25, 0.75], rng=1)
        for _ in range(600):
            tagger.next_slot()
        total = sum(tagger.packets_per_class)
        assert tagger.packets_per_class[0] / total == pytest.approx(0.25, abs=0.04)

    def test_packet_fields_preserved(self):
        base = BernoulliMulticastTraffic(4, p=1.0, b=0.5, rng=0)
        tagger = PriorityTagger(base, [1.0, 1.0], rng=1)
        for pkt in tagger.next_slot():
            assert pkt is not None
            assert pkt.priority in (0, 1)
            assert pkt.fanout >= 1

    def test_bad_shares(self):
        base = BernoulliMulticastTraffic(4, p=0.5, b=0.5)
        with pytest.raises(ConfigurationError):
            PriorityTagger(base, [])
        with pytest.raises(ConfigurationError):
            PriorityTagger(base, [-1.0, 2.0])

    def test_load_passthrough(self):
        base = BernoulliMulticastTraffic(8, p=0.3, b=0.25)
        tagger = PriorityTagger(base, [1, 1])
        assert tagger.effective_load == base.effective_load


class TestEndToEndViaRunner:
    def test_registry_and_spec_integration(self):
        s = run_simulation(
            "fifoms-prio",
            8,
            {"model": "bernoulli", "p": 0.25, "b": 0.25, "class_shares": [0.3, 0.7]},
            num_slots=3000,
            seed=4,
            num_classes=2,
        )
        assert not s.unstable
        assert s.delivery_ratio == pytest.approx(1.0, abs=0.05)

    def test_per_class_delay_ordering(self):
        """At high load the premium class must see markedly lower delay."""
        (high, low), counts = _class_delays(8, 0.55, 0.25, 6000, 2000, seed=3)
        assert counts[0] > 100 and counts[1] > 100
        assert high < low

    def test_premium_delay_is_load_insensitive(self):
        """On the Fig. 4 workload the premium class preempts everything,
        so it stays below best effort at every load and its delay grows
        at most 3x from load 0.5 to load 0.85."""
        from repro.analysis.loads import bernoulli_arrival_probability

        premium = []
        for load in (0.5, 0.7, 0.85):
            p = bernoulli_arrival_probability(16, load, 0.2)
            (high, low), _ = _class_delays(16, p, 0.2, 4000, 2000, seed=2004)
            assert high < low
            premium.append(high)
        assert premium[-1] <= premium[0] * 3
