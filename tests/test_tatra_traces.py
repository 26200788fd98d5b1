"""TATRA on arbitrary and pinned traces: every run clean under the
sanitizer, and the HOL-blocking behaviour it must show."""

from __future__ import annotations

from hypothesis import given, settings

from repro.schedulers.registry import make_switch
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.traffic.trace import TraceTraffic
from repro.verify.exhaustive import VerificationReport, check_trace

from conftest import make_packet, traces


@settings(max_examples=30, deadline=None)
@given(traces())
def test_fast_tatra_bit_identical_on_any_trace(trace):
    """Property form: the registry pairing runs any hypothesis-drawn
    trace to drain under the full hard-fail sanitizer catalogue, its
    deep pass every slot."""
    n, horizon, arrivals = trace
    report = VerificationReport("tatra", n, horizon)
    check_trace(report, arrivals)
    assert report.ok, report.violations


class TestFastTATRABehaviour:
    def test_hol_blocking_visible(self):
        """The engine preserves the architecture's defining pathology."""
        pkts = [
            make_packet(0, (0,), 0),
            make_packet(1, (0,), 0),
            make_packet(0, (2,), 1),
            make_packet(1, (3,), 1),
        ]
        cfg = SimulationConfig(
            num_slots=6, warmup_fraction=0.0, stability_window=0
        )
        s = SimulationEngine(
            make_switch("tatra", 4), TraceTraffic(4, pkts), cfg,
            algorithm_name="tatra",
        ).run()
        assert s.cells_delivered == 4
        # The loser's second packet waits a slot: mean input delay > 1.25.
        assert s.average_input_delay > 1.25
