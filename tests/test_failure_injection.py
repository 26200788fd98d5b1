"""Failure-injection tests: deliberately broken components must be
caught by the library's defensive layers, not silently corrupt results.

Each test wires a specific class of bug — infeasible matchings, grants
for empty queues, buffer life-cycle misuse, statistics desync — and
asserts the corresponding guard fires with a precise error.
"""

from __future__ import annotations

import pytest

from repro.core.matching import GrantSet, ScheduleDecision
from repro.errors import (
    BufferError_,
    FabricConflictError,
    SchedulingError,
    SimulationError,
)
from repro.switch.voq_multicast import MulticastVOQSwitch
from repro.switch.voq_unicast import UnicastVOQSwitch
from repro.switch.single_queue import SingleInputQueueSwitch

from conftest import make_packet


def _lane(n, *pkts):
    lanes = [None] * n
    for p in pkts:
        lanes[p.input_port] = p
    return lanes


class _EvilDecision(ScheduleDecision):
    """Bypasses add()'s checks to forge invalid matchings."""

    def force(self, input_port: int, outputs: tuple[int, ...]) -> None:
        self.grants[input_port] = GrantSet(input_port, outputs)


class TestInfeasibleMatchings:
    def test_output_double_booking_caught_by_validate(self):
        class Evil:
            def schedule(self, ports):
                d = _EvilDecision()
                d.force(0, (1,))
                d.force(1, (1,))  # same output, two inputs
                return d

        sw = MulticastVOQSwitch(4, Evil())
        with pytest.raises(SchedulingError, match="granted to inputs"):
            sw.step(
                _lane(4, make_packet(0, (1,), 0), make_packet(1, (1,), 0)), 0
            )

    def test_crossbar_is_the_second_line_of_defense(self):
        from repro.fabric.crossbar import MulticastCrossbar

        xbar = MulticastCrossbar(4)
        d = _EvilDecision()
        d.force(0, (2,))
        d.force(3, (2,))
        with pytest.raises(FabricConflictError):
            xbar.configure(d)

    def test_grant_for_empty_voq(self):
        class Evil:
            def schedule(self, ports):
                d = ScheduleDecision()
                d.add(2, (3,))  # input 2 holds nothing
                return d

        sw = MulticastVOQSwitch(4, Evil())
        with pytest.raises(SchedulingError):
            sw.step(_lane(4), 0)

    def test_multicast_grant_spanning_two_packets(self):
        """Granting HOL cells of two *different* packets to one input in
        one slot violates the single-data-cell rule and must be caught."""

        class Evil:
            def schedule(self, ports):
                d = ScheduleDecision()
                pending = [
                    j for j, q in enumerate(ports[0].voqs) if len(q) > 0
                ]
                if len(pending) >= 2:
                    d.add(0, tuple(pending))
                return d

        sw = MulticastVOQSwitch(4, Evil())
        sw.step(_lane(4, make_packet(0, (1,), 0)), 0)  # ts 0 -> VOQ 1
        with pytest.raises(SchedulingError, match="two distinct data cells|distinct"):
            sw.step(_lane(4, make_packet(0, (2,), 1)), 1)  # ts 1 -> VOQ 2

    def test_unicast_switch_rejects_multicast_grants(self):
        class Evil:
            def schedule(self, view):
                d = ScheduleDecision()
                d.add(0, (0, 1))
                return d

        sw = UnicastVOQSwitch(4, Evil())
        with pytest.raises(SchedulingError, match="fanout"):
            sw.step(_lane(4, make_packet(0, (0, 1), 0)), 0)

    def test_siq_grant_outside_residue(self):
        class Evil:
            def schedule(self, view):
                d = ScheduleDecision()
                if view.inputs:
                    d.add(view.inputs[0], (3,))
                return d

        sw = SingleInputQueueSwitch(4, Evil())
        with pytest.raises(SchedulingError, match="residue"):
            sw.step(_lane(4, make_packet(0, (0,), 0)), 0)


class TestBufferLifecycleAbuse:
    def test_counter_underflow(self):
        from repro.core.buffers import DataCellBuffer

        buf = DataCellBuffer()
        cell = buf.allocate(make_packet(0, (0,), 0))
        buf.record_service(cell)
        cell.fanout_counter = 1
        with pytest.raises(BufferError_):
            buf.record_service(cell)  # cell no longer owned by the pool

    def test_premature_release(self):
        from repro.core.buffers import DataCellBuffer

        buf = DataCellBuffer()
        cell = buf.allocate(make_packet(0, (0, 1), 0))
        with pytest.raises(BufferError_, match="fanout_counter"):
            buf.release(cell)


class TestStatisticsDesync:
    def test_duplicate_delivery_detected(self):
        from repro.packet import Delivery
        from repro.stats.delay import DelayTracker

        t = DelayTracker()
        pkt = make_packet(0, (1,), 0)
        t.on_arrival(pkt.packet_id, 0, 1)
        t.on_delivery(Delivery(pkt, 1, 0))
        with pytest.raises(SimulationError):
            t.on_delivery(Delivery(pkt, 1, 1))

    def test_engine_audit_catches_leaky_switch(self):
        """A switch that drops cells without delivering them fails the
        engine's final conservation audit."""
        from repro.sim.config import SimulationConfig
        from repro.sim.engine import SimulationEngine
        from repro.traffic.trace import TraceTraffic

        class Leaky(MulticastVOQSwitch):
            def _schedule_and_transmit(self, slot):
                result = super()._schedule_and_transmit(slot)
                if slot == 1:
                    # Drop a queued address cell on the floor.
                    for port in self.ports:
                        for q in port.voqs:
                            if len(q) > 0:
                                cell = q.pop_head()
                                cell.data_cell.fanout_counter -= 1
                                if cell.data_cell.exhausted:
                                    port.buffer.release(cell.data_cell)
                                return result
                return result

        from repro.core.fifoms import FIFOMSScheduler, TieBreak

        packets = [
            make_packet(0, (0,), 0),
            make_packet(1, (0,), 0),  # contention: one cell stays queued
            make_packet(0, (1,), 1),
            make_packet(1, (1,), 1),
        ]
        # The leak reaches into the per-cell port objects, which only the
        # object backend holds.
        sw = Leaky(
            2,
            FIFOMSScheduler(2, tie_break=TieBreak.LOWEST_INPUT),
            backend="object",
        )
        cfg = SimulationConfig(
            num_slots=6, warmup_fraction=0.0, stability_window=0
        )
        engine = SimulationEngine(sw, TraceTraffic(2, packets), cfg)
        with pytest.raises(SimulationError, match="conservation"):
            engine.run()
