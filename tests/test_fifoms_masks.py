"""Tests for the FIFOMS port-mask API (the fault-outage hook)."""

from __future__ import annotations

import pytest

from repro.core.fifoms import FIFOMSScheduler, TieBreak
from repro.errors import ConfigurationError
from repro.kernel.state import SwitchState

from conftest import loaded_kernels


class TestPortMasks:
    """Each case runs on production and on the reference model."""

    def _sched(self):
        return FIFOMSScheduler(4, tie_break=TieBreak.LOWEST_INPUT)

    def test_reserved_output_not_granted(self):
        for kernel in loaded_kernels(4, (0, (1, 2), 0)):
            out_free = [True, False, True, True]  # output 1 pre-reserved
            decision = kernel.schedule(self._sched(), output_free=out_free)
            assert decision.grants[0].output_ports == (2,)

    def test_reserved_input_does_not_request(self):
        # Input 1's packet is younger and would lose normally.
        for kernel in loaded_kernels(4, (0, (1,), 0), (1, (1,), 5)):
            in_free = [False, True, True, True]
            decision = kernel.schedule(self._sched(), input_free=in_free)
            assert 0 not in decision.grants
            assert decision.grants[1].output_ports == (1,)

    def test_masks_mutated_in_place_for_chaining(self):
        for kernel in loaded_kernels(4, (0, (1, 3), 0)):
            in_free = [True] * 4
            out_free = [True] * 4
            kernel.schedule(self._sched(), input_free=in_free, output_free=out_free)
            assert in_free[0] is False
            assert out_free[1] is False and out_free[3] is False
            assert out_free[0] is True and out_free[2] is True

    def test_two_pass_chaining_is_feasible(self):
        """Run two FIFOMS passes over two kernels sharing masks and
        check the union matching."""
        his = loaded_kernels(4, (0, (0, 1), 0))
        los = loaded_kernels(4, (1, (1, 2), 0))  # output 1 contended across passes
        for hi, lo in zip(his, los):
            in_free = [True] * 4
            out_free = [True] * 4
            sched = self._sched()
            d_hi = hi.schedule(sched, input_free=in_free, output_free=out_free)
            d_lo = lo.schedule(sched, input_free=in_free, output_free=out_free)
            assert d_hi.grants[0].output_ports == (0, 1)
            assert d_lo.grants[1].output_ports == (2,)  # output 1 was taken
            # Union is crossbar-feasible by construction.
            outs = [
                j
                for d in (d_hi, d_lo)
                for g in d.grants.values()
                for j in g.output_ports
            ]
            assert len(outs) == len(set(outs))

    def test_bad_mask_length(self):
        with pytest.raises(ConfigurationError):
            self._sched().schedule_state(SwitchState(4), input_free=[True] * 3)

    def test_masks_honoured_by_no_split_variant(self):
        """A packet needing a reserved output waits whole, a reserved
        input offers nothing, and the grants are written back."""
        loads = [
            (0, (1, 2), 0),  # needs reserved output 2
            (1, (0,), 1),  # reserved input
            (3, (1, 3), 2),
        ]
        for kernel in loaded_kernels(4, *loads):
            sched = FIFOMSScheduler(
                4, tie_break=TieBreak.LOWEST_INPUT, fanout_splitting=False
            )
            in_free = [True, False, True, True]
            out_free = [True, True, False, True]
            decision = kernel.schedule(sched, input_free=in_free, output_free=out_free)
            assert dict(decision.masks) == {3: 0b1010}
            assert (decision.rounds, decision.round_grants) == (1, [1])
            assert in_free == [True, False, True, False]
            assert out_free == [True, False, False, False]

    def test_all_masked_is_a_noop(self):
        for kernel in loaded_kernels(4, (0, (1,), 0)):
            decision = kernel.schedule(
                self._sched(), input_free=[False] * 4, output_free=[False] * 4
            )
            assert not decision
            assert not decision.requests_made


@pytest.mark.parametrize("backend", ["object", "vectorized"])
def test_no_split_variant_never_splits_under_an_output_outage(backend):
    """The no-splitting ablation withholds a packet that needs a down
    output instead of being granted it whole and pruned to a split."""
    from repro.sim.runner import run_simulation

    summary = run_simulation(
        "fifoms", 8, {"model": "bernoulli", "p": 0.3, "b": 0.25},
        num_slots=4000, seed=3, faults="output-outage",
        fanout_splitting=False, backend=backend, collect_telemetry=True,
    )
    assert summary.faults["outage_slots"] > 0
    (splits,) = (
        m["value"]
        for m in summary.telemetry["metrics"]["metrics"]
        if m["name"] == "sim.fanout_splits"
    )
    assert splits == 0
