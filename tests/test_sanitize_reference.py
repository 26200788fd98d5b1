"""The three per-slot sanitizer checkers against the walks they replaced.

``Reference`` (one ``(message, context)`` pair per violation) keeps what the checkers kept before they read each fact
once: a ``(src, output)`` dict of last-served arrivals for FIFO order, a
dict of pid sets per input for matching validity, and a running sum over
the arrivals for conservation. Hypothesis feeds both the same random
slots — overtakes, output clashes, two cells from one input, foreign
slot stamps, degraded fault states, drifting counters and ledgers — and
the production checkers must return the same ``Violation`` lists, in the
same order, slot by slot, from 4 ports to past a machine word.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packet import Packet
from repro.sanitize import (
    ConservationChecker,
    FifoOrderChecker,
    MatchingValidityChecker,
    RunContext,
    Violation,
)
from repro.switch.base import SlotResult
from repro.utils.bitsets import iter_bits

SIZES = (4, 16, 70, 256)


class Reference:
    def __init__(self):
        self.last, self.offered, self.delivered, self.dropped, self.lost = {}, 0, 0, 0, 0

    def conservation(self, ctx, slot, arrivals, result):
        self.offered += sum(p.fanout for p in arrivals if p is not None)
        self.delivered, self.dropped, self.lost = self.delivered + result.cells_delivered, self.dropped + result.cells_dropped, self.lost + result.grants_lost
        backlog, out = int(ctx.switch.total_backlog()), []
        if self.offered != self.delivered + self.dropped + backlog:
            out.append(("cell conservation broken: offered cells != delivered + dropped + queued", dict(offered=self.offered, delivered=self.delivered, dropped=self.dropped, backlog=backlog)))
        if (counter := getattr(ctx.switch, "cells_delivered", None)) is not None and counter != self.delivered:
            out.append(("switch lifetime delivery counter disagrees with the per-slot delivery stream", dict(switch_counter=counter, slot_stream=self.delivered)))
        ledger = ctx.injector.ledger() if ctx.injector is not None else None
        if ledger and int(ledger["cells_dropped"]) > self.dropped:
            out.append(("fault ledger counts more dropped cells than the run observed; a drop was charged but never surfaced", dict(ledger_cells_dropped=int(ledger["cells_dropped"]), observed_dropped=self.dropped)))
        if ledger and int(ledger["grants_lost"]) != self.lost:
            out.append(("fault ledger grants_lost disagrees with the per-slot grant-loss stream", dict(ledger_grants_lost=int(ledger["grants_lost"]), observed_grants_lost=self.lost)))
        return out

    def matching(self, ctx, slot, arrivals, result):
        out, seen, per_input, state = [], 0, {}, ctx.injector and ctx.injector.current
        if result.rows and result.slot != slot:
            out.append(("delivery stamped with a foreign service slot", dict(service_slot=result.slot)))
        for packet, mask in result.rows:
            out += [("two cells delivered to one output in one slot", dict(output=j)) for j in iter_bits(seen & mask)]
            seen, src = seen | mask, packet.input_port
            per_input.setdefault(src, set()).add(packet.packet_id)
            for j in iter_bits(mask) if state is not None and state.degraded else ():
                out += [("delivery from a down input port", dict(input=src))] if state.input_is_down(src) else []
                out += [("delivery to a down output port", dict(output=j))] if state.output_is_down(j) else []
                out += [("delivery through a failed crosspoint", dict(input=src, output=j))] if (src, j) in state.failed_crosspoints else []
        if getattr(ctx.switch, "matching_discipline", "crossbar") == "crossbar":
            out += [("input delivered two distinct data cells in one slot through a crossbar matching", dict(input=src, distinct_cells=len(pids))) for src, pids in sorted(per_input.items()) if len(pids) > 1]
        return out

    def fifo(self, ctx, slot, arrivals, result):
        out = []
        for packet, mask in result.rows if getattr(ctx.switch, "fifo_per_pair", True) else ():
            for j in iter_bits(mask):
                prev = self.last.get((packet.input_port, j))
                if prev is not None and packet.arrival_slot < prev:
                    out.append(("FIFO order broken: a younger cell overtook an older one on the same (input, output) pair", dict(input=packet.input_port, output=j, served_arrival=packet.arrival_slot, previous_arrival=prev)))
                else:
                    self.last[(packet.input_port, j)] = packet.arrival_slot
        return out


# ---------------------------------------------------------------------- #
class _FaultState:
    def __init__(self, degraded, down_in, down_out, failed):
        self.degraded, self.failed_crosspoints = degraded, failed
        self._down_in, self._down_out = down_in, down_out

    def input_is_down(self, port):
        return port in self._down_in

    def output_is_down(self, port):
        return port in self._down_out


@st.composite
def runs(draw, n):
    """A stub switch, an optional injector and a few slots of rows."""
    outputs = st.one_of(st.integers(0, 3), st.integers(n - 3, n - 1), st.integers(0, n - 1))
    masks = st.lists(outputs, min_size=1, max_size=4).map(lambda js: sum({1 << j for j in js}))
    packets = draw(st.lists(
        st.builds(Packet, input_port=st.integers(0, 3), destinations=st.lists(outputs, min_size=1, max_size=4), arrival_slot=st.integers(0, 6)),
        min_size=1, max_size=6,
    ))
    switch = SimpleNamespace(
        matching_discipline=draw(st.sampled_from(["crossbar", "crossbar", "output"])),
        fifo_per_pair=draw(st.booleans() | st.just(True)),
        backlog=0,
    )
    switch.total_backlog = lambda: switch.backlog
    counted = draw(st.booleans())
    if counted:
        switch.cells_delivered = 0
    injector = None
    if draw(st.booleans()):
        ports = st.frozensets(st.integers(0, 3), max_size=2)
        pairs = st.frozensets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3)
        injector = SimpleNamespace(
            current=_FaultState(draw(st.booleans()), draw(ports), draw(ports), draw(pairs)),
            ledger=lambda: injector.book,
            book={"cells_dropped": 0, "grants_lost": 0},
        )
    slots = []
    for slot in range(draw(st.integers(1, 5))):
        picks = st.sampled_from(range(len(packets)))
        rows = [(packets[i], draw(masks)) for i in draw(st.lists(picks, max_size=5))]
        arrivals = [packets[i] for i in draw(st.lists(picks, max_size=3))] + [None]
        dropped = tuple(packets[i] for i in draw(st.lists(picks, max_size=1)))
        result = SlotResult(
            slot=slot + draw(st.sampled_from([0, 0, 0, 1])),
            rows=rows,
            cells_delivered=sum(mask.bit_count() for _, mask in rows),
            dropped_packets=dropped,
            grants_lost=draw(st.integers(0, 2)),
        )
        counters = (draw(st.integers(0, 40)), draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 30)))
        slots.append((slot, arrivals, result, counters))
    return switch, counted, injector, slots


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_checkers_match_the_reference(n, data):
    switch, counted, injector, slots = data.draw(runs(n))
    ctx = RunContext(switch=switch, injector=injector, algorithm="ref")
    reference = Reference()
    pairs = [
        (ConservationChecker(), reference.conservation, "conservation"),
        (MatchingValidityChecker(), reference.matching, "matching"),
        (FifoOrderChecker(), reference.fifo, "fifo_order"),
    ]
    delivered = 0
    for slot, arrivals, result, (backlog, ledger_drops, ledger_lost, drift) in slots:
        # Counters that track the run most of the time and drift now and then.
        delivered += result.cells_delivered
        switch.backlog = backlog
        if counted:
            switch.cells_delivered = delivered + (drift if drift > 25 else 0)
        if injector is not None:
            injector.book = {"cells_dropped": ledger_drops, "grants_lost": ledger_lost}
        for checker, oracle, name in pairs:
            expected = [
                Violation(name, slot, message, "ref", tuple(sorted(context.items())))
                for message, context in oracle(ctx, slot, arrivals, result)
            ]
            assert checker.on_slot(ctx, slot, arrivals, result) == expected
