"""Stream identity of FIFOMS's batched RANDOM tie-breaks.

Under ``TieBreak.RANDOM`` a round with eight or more clashed outputs
draws every tie-break in one ``rng.integers(0, sizes)`` call, in ascending
output order, instead of one ``rng.integers(k)`` per output. The
contract is that batching never changes which numbers are consumed: the
broadcast call must return the per-output scalar draws **and** leave the
bit generator in the same state. A numpy release that changes its
broadcast path fails here first; the pinned decision digest below then
shows whether the simulator's output moved with it.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fifoms import FIFOMSScheduler, TieBreak
from repro.kernel.state import SwitchState
from repro.traffic.bernoulli import BernoulliMulticastTraffic

SEEDS = (0, 11, 2004)
N = 256


def _assert_batch_is_scalar_stream(seed: int, sizes: list[int]) -> None:
    batched = np.random.default_rng(seed)
    scalar = np.random.default_rng(seed)
    draws = batched.integers(0, sizes).tolist()
    assert draws == [int(scalar.integers(k)) for k in sizes]
    assert batched.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("length", [1, 2, 3, 17, 40])
@pytest.mark.parametrize("high", [2, 3, 16, 255, N])
def test_batched_draw_is_the_scalar_sequence(seed, length, high):
    sizes = [2 + (k * 7919) % (high - 1) for k in range(length)]
    _assert_batch_is_scalar_stream(seed, sizes)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(2, N), min_size=1, max_size=40),
)
def test_batched_draw_is_the_scalar_sequence_for_any_sizes(seed, sizes):
    _assert_batch_is_scalar_stream(seed, sizes)


class _CountingRng:
    """Generator proxy that counts batched (array-bound) draws."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.batched = 0

    def integers(self, *args):
        if len(args) == 2:
            self.batched += 1
        return self.rng.integers(*args)


def _decision_digest(seed: int, slots: int) -> tuple[str, int]:
    """sha256 of a FIFOMS RANDOM run's decisions at N = 256 (masks,
    rounds, grants per round) and of the tie-break generator's final
    state, plus how many rounds drew their tie-breaks batched."""
    traffic = BernoulliMulticastTraffic(N, p=0.063, b=0.05, rng=seed)
    scheduler = FIFOMSScheduler(N, tie_break=TieBreak.RANDOM, rng=seed + 1)
    rng = scheduler._rng
    counting = scheduler._rng = _CountingRng(rng)
    state = SwitchState(N)
    digest = hashlib.sha256()
    rows: list = []
    for slot in range(slots):
        for packet in traffic.next_slot():
            if packet is not None:
                state.admit(packet, slot)
        d = scheduler.schedule_state(state)
        digest.update(
            repr((slot, sorted(d.masks.items()), d.rounds, d.round_grants)).encode()
        )
        state.serve_rows(d.masks.items(), rows.append)
    digest.update(repr(rng.bit_generator.state).encode())
    return digest.hexdigest(), counting.batched


def test_fifoms_random_decisions_at_256_ports_are_pinned():
    """Recorded on the per-output scalar draws (one ``rng.integers(k)``
    per clashed output) before the rounds batched them."""
    digest, batched = _decision_digest(seed=2004, slots=120)
    assert batched > 0
    assert digest == "a4975914d1d643af16e252acd89c0aadcd7e936458e14b026b44a9c1c15427d9"
