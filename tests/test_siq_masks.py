"""SIQ-FIFO and TATRA on the residue bitmasks: each shipped
``schedule(view)`` against a dict-of-lists oracle written with plain
loops, on random HOL states from one port to beyond a machine word."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import make_packet

from repro.schedulers.base import SIQHolView
from repro.schedulers.siq_fifo import SIQFifoScheduler
from repro.schedulers.tatra import TATRAScheduler
from repro.switch.single_queue import SingleInputQueueSwitch

SIZES = (1, 2, 5, 16, 33, 70)


def _draw_tie(winners, rng):
    return winners[0] if len(winners) == 1 else winners[int(rng.integers(len(winners)))]


def reference_siq_fifo(cells, n, rng):
    """``cells[i] = (outputs, arrival)``: every output grants its oldest
    requester, output by output, ties drawn from ``rng``."""
    grants = {}
    for j in range(n):
        requesters = [i for i in sorted(cells) if j in cells[i][0]]
        if requesters:
            oldest = min(cells[i][1] for i in requesters)
            winners = [i for i in requesters if cells[i][1] == oldest]
            grants.setdefault(_draw_tie(winners, rng), []).append(j)
    return grants


def reference_tatra(cells, columns, in_box):
    """``cells[i] = (outputs, arrival, packet_id)``; ``columns[j]`` lists
    the inputs with a square in column j, bottom first; ``in_box[i]`` is
    the packet input i has in the box. Moves both in place."""
    fresh = [i for i in sorted(cells) if in_box.get(i) != cells[i][2]]
    date = {i: max(len(columns[j]) + 1 for j in cells[i][0]) for i in fresh}
    for i in sorted(fresh, key=lambda i: (date[i], cells[i][1], i)):
        for j in sorted(cells[i][0]):
            columns[j].append(i)
        in_box[i] = cells[i][2]
    grants = {}
    for j in sorted(columns):
        if columns[j]:
            grants.setdefault(columns[j].pop(0), []).append(j)
    for i in grants:
        if not any(i in column for column in columns.values()):
            del in_box[i]
    return grants


def _cells_of(view):
    """The view as the oracles read it: no masks, lists of outputs."""
    return {
        i: ([j for j in range(bits.bit_length()) if (bits >> j) & 1], arrival, pid)
        for i, bits, arrival, pid in zip(
            view.inputs, view.residue_bits, view.arrivals, view.packet_ids
        )
    }


def _random_view(rng, n, slot):
    """Sparse to full, the densities drawn per view; arrival slots come
    from two values, so most contended outputs see a tie."""
    busy = rng.choice([0.1, 0.5, 1.0])
    density = rng.choice([0.02, 0.1, 0.3, 0.7, 1.0])
    inputs, residue_bits = [], []
    for i in range(n):
        outputs = np.flatnonzero(rng.random(n) < density).tolist()
        if outputs and rng.random() < busy:
            inputs.append(i)
            residue_bits.append(sum(1 << j for j in outputs))
    return SIQHolView(
        current_slot=slot,
        inputs=inputs,
        residue_bits=residue_bits,
        arrivals=rng.integers(slot - 1, slot + 1, size=len(inputs)).tolist(),
        packet_ids=list(range(len(inputs))),
    )


def _assert_same(decision, expected, view):
    assert {i: list(g.output_ports) for i, g in decision.grants.items()} == expected
    assert list(decision.grants) == sorted(decision.grants)
    assert decision.rounds == (1 if expected else 0)
    assert decision.requests_made == bool(view.inputs)


@pytest.mark.parametrize("n", SIZES)
def test_siq_fifo_matches_scalar_reference(n):
    rng = np.random.default_rng(200 * n)
    sched = SIQFifoScheduler(n, rng=4)
    ref_rng = np.random.default_rng(4)
    for slot in range(5, 45):
        view = _random_view(rng, n, slot)
        cells = {i: c[:2] for i, c in _cells_of(view).items()}
        expected = reference_siq_fifo(cells, n, ref_rng)
        _assert_same(sched.schedule(view), expected, view)
        assert sched._rng.bit_generator.state == ref_rng.bit_generator.state


class _TatraBesideItsOracle:
    """Scheduler stand-in for the switch: runs the shipped TATRA and the
    oracle on every view and returns the shipped decision."""

    def __init__(self, n):
        self.shipped = TATRAScheduler(n)
        self.columns = {j: [] for j in range(n)}
        self.in_box = {}
        self.slots_with_residue = 0

    def schedule(self, view):
        expected = reference_tatra(_cells_of(view), self.columns, self.in_box)
        decision = self.shipped.schedule(view)
        _assert_same(decision, expected, view)
        assert self.shipped.box_heights() == [
            len(self.columns[j]) for j in sorted(self.columns)
        ]
        self.slots_with_residue += any(self.shipped.box_heights())
        return decision


@pytest.mark.parametrize("n", SIZES)
def test_tatra_matches_scalar_reference_as_the_box_evolves(n):
    """Multi-slot on the real switch, so residues, successors and the
    departure-date box all carry over from slot to slot."""
    rng = np.random.default_rng(300 * n)
    both = _TatraBesideItsOracle(n)
    switch = SingleInputQueueSwitch(n, both)
    for slot in range(60):
        lanes = [None] * n
        density = rng.choice([0.1, 0.4, 0.9])
        for i in range(n):
            outputs = np.flatnonzero(rng.random(n) < density).tolist()
            if outputs and rng.random() < 0.6:
                lanes[i] = make_packet(i, tuple(outputs), slot)
        switch.step(lanes, slot)
        switch.check_invariants()
    if n > 1:
        assert both.slots_with_residue > 10


def test_schedulers_leave_the_view_alone():
    view = SIQHolView(
        current_slot=3, inputs=[0, 2], residue_bits=[0b101, 0b100],
        arrivals=[1, 1], packet_ids=[7, 8],
    )
    for sched in (SIQFifoScheduler(3, rng=0), TATRAScheduler(3)):
        sched.schedule(view)
        assert (view.inputs, view.residue_bits) == ([0, 2], [0b101, 0b100])
        assert (view.arrivals, view.packet_ids) == ([1, 1], [7, 8])
