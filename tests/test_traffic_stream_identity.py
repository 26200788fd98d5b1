"""Stream identity of the batched traffic generators.

The generators draw a slot's destinations in as few array calls as the
RNG stream allows. The contract (docs/architecture.md, "Traffic RNG-stream
contract") is that batching never changes which numbers are consumed: the
functions below are the per-packet generators as they stood before the
batching, kept here as test-only oracles. Every model must emit the same
``(slot, input, destinations)`` sequence **and** leave the bit generator
in the same state, so a run's tail is identical too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TrafficError
from repro.packet import Packet
from repro.traffic.base import binomial_destination_rows
from repro.traffic.bernoulli import BernoulliMulticastTraffic
from repro.traffic.burst import BurstMulticastTraffic
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.mixed import MixedTraffic
from repro.traffic.uniform import UniformFanoutTraffic

SEEDS = (0, 11, 2004)
PORTS = (2, 3, 4, 16, 256)
ARRIVAL_PROBS = (0.0, 0.3, 1.0)

Arrival = tuple[int, int, tuple[int, ...]]


# --------------------------------------------------------------------- #
# Oracles: one scalar/row draw per packet, int() per element.
# --------------------------------------------------------------------- #
def _normalise(dests) -> tuple[int, ...]:
    """``Packet.__post_init__``'s original destination normaliser."""
    return tuple(sorted(set(int(d) for d in dests)))


def _row(rng: np.random.Generator, n: int, b: float, min_hits: int) -> tuple[int, ...]:
    mask = rng.random(n) < b
    while mask.sum() < min_hits:
        mask = rng.random(n) < b
    return tuple(int(j) for j in np.nonzero(mask)[0])


def oracle_uniform(rng, n, slots, *, p, max_fanout) -> list[Arrival]:
    out = []
    for slot in range(slots):
        busy = rng.random(n) < p
        for i in np.nonzero(busy)[0]:
            fanout = int(rng.integers(1, max_fanout + 1))
            dests = rng.choice(n, size=fanout, replace=False)
            out.append((slot, int(i), _normalise(dests)))
    return out


def oracle_bernoulli(rng, n, slots, *, p, b) -> list[Arrival]:
    out = []
    for slot in range(slots):
        busy = rng.random(n) < p
        for i in np.nonzero(busy)[0]:
            out.append((slot, int(i), _row(rng, n, b, 1)))
    return out


def oracle_burst(rng, n, slots, *, e_off, e_on, b) -> list[Arrival]:
    on = rng.random(n) < e_on / (e_off + e_on)
    dests = [_row(rng, n, b, 1) if state else None for state in on]
    out = []
    for slot in range(slots):
        out.extend((slot, i, dests[i]) for i in range(n) if on[i])
        flips = rng.random(n)
        for i in range(n):
            if on[i]:
                if flips[i] < 1.0 / e_on:
                    on[i] = False
                    dests[i] = None
            elif flips[i] < 1.0 / e_off:
                on[i] = True
                dests[i] = _row(rng, n, b, 1)
    return out


def oracle_mixed(rng, n, slots, *, p, unicast_fraction, b) -> list[Arrival]:
    out = []
    for slot in range(slots):
        busy = rng.random(n) < p
        for i in np.nonzero(busy)[0]:
            if rng.random() < unicast_fraction:
                dests = (int(rng.integers(n)),)
            else:
                dests = _row(rng, n, b, 2)
            out.append((slot, int(i), dests))
    return out


def oracle_hotspot(rng, n, slots, *, p, max_fanout, probs) -> list[Arrival]:
    out = []
    for slot in range(slots):
        busy = rng.random(n) < p
        for i in np.nonzero(busy)[0]:
            fanout = int(rng.integers(1, max_fanout + 1))
            dests = rng.choice(n, size=fanout, replace=False, p=probs)
            out.append((slot, int(i), _normalise(dests)))
    return out


# --------------------------------------------------------------------- #
def _slots_for(n: int) -> int:
    return 12 if n == 256 else 120


def _assert_identical(model, oracle, slots: int, seed: int, **oracle_kwargs) -> None:
    """Same arrivals, same counters, same final bit-generator state."""
    oracle_rng = np.random.default_rng(seed)
    expected = oracle(oracle_rng, model.num_ports, slots, **oracle_kwargs)
    got: list[Arrival] = []
    for slot in range(slots):
        lanes = model.next_slot()
        assert len(lanes) == model.num_ports
        for i, pkt in enumerate(lanes):
            if pkt is not None:
                assert (pkt.input_port, pkt.arrival_slot) == (i, slot)
                assert all(type(d) is int for d in pkt.destinations)
                got.append((slot, i, pkt.destinations))
    assert got == expected
    assert model.packets_generated == len(expected)
    assert model.cells_generated == sum(len(d) for _, _, d in expected)
    assert model.rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", PORTS)
@pytest.mark.parametrize("p", ARRIVAL_PROBS)
class TestStreamIdentity:
    @pytest.mark.parametrize("max_fanout", (1, 4))
    def test_uniform(self, seed, n, p, max_fanout):
        mf = min(max_fanout, n)
        model = UniformFanoutTraffic(n, p=p, max_fanout=mf, rng=seed)
        _assert_identical(
            model, oracle_uniform, _slots_for(n), seed, p=p, max_fanout=mf
        )

    @pytest.mark.parametrize("b", (0.05, 0.2, 1.0))
    def test_bernoulli(self, seed, n, p, b):
        model = BernoulliMulticastTraffic(n, p=p, b=b, rng=seed)
        _assert_identical(model, oracle_bernoulli, _slots_for(n), seed, p=p, b=b)

    @pytest.mark.parametrize("unicast_fraction", (0.0, 0.5, 1.0))
    def test_mixed(self, seed, n, p, unicast_fraction):
        # b = 0.3 at N = 2 leaves 9 rows in 100 with two hits: the
        # redraw loop, not the first draw, produces most packets.
        slots = 4 if n == 256 else 60
        model = MixedTraffic(
            n, p=p, unicast_fraction=unicast_fraction, b=0.3, rng=seed
        )
        _assert_identical(
            model, oracle_mixed, slots, seed,
            p=p, unicast_fraction=unicast_fraction, b=0.3,
        )

    def test_hotspot(self, seed, n, p):
        mf = min(4, n)
        model = HotspotTraffic(
            n, p=p, max_fanout=mf, num_hotspots=1, hotspot_fraction=0.5, rng=seed
        )
        _assert_identical(
            model, oracle_hotspot, _slots_for(n), seed,
            p=p, max_fanout=mf, probs=model.destination_probs,
        )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", PORTS)
@pytest.mark.parametrize("b", (0.05, 0.5))
def test_burst(seed, n, b):
    model = BurstMulticastTraffic(n, e_off=3.0, e_on=4.0, b=b, rng=seed)
    _assert_identical(
        model, oracle_burst, _slots_for(n), seed, e_off=3.0, e_on=4.0, b=b
    )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=0.02, max_value=1.0),
    st.integers(min_value=0, max_value=2),
)
def test_destination_rows_match_one_row_redraws(seed, rows, n, b, min_hits):
    """The shared helper against ``rows`` one-at-a-time redraw loops; at
    small ``b`` most rows are rejected and refill draws dominate."""
    min_hits = min(min_hits, n)
    oracle_rng = np.random.default_rng(seed)
    expected = [_row(oracle_rng, n, b, min_hits) for _ in range(rows)]
    rng = np.random.default_rng(seed)
    assert binomial_destination_rows(rng, rows, n, b, min_hits) == expected
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


# --------------------------------------------------------------------- #
# Packet normalisation: the fast path must be indistinguishable.
# --------------------------------------------------------------------- #
_element = st.one_of(
    st.integers(min_value=-3, max_value=40),
    st.booleans(),
    st.integers(min_value=-3, max_value=40).map(np.int64),
    st.integers(min_value=0, max_value=40).map(np.uint8),
)
_destinations = st.one_of(
    st.lists(_element, max_size=8),
    st.lists(_element, max_size=8).map(tuple),
    st.lists(st.integers(min_value=-3, max_value=40), max_size=8).map(
        lambda xs: tuple(sorted(set(xs)))
    ),
)


def _old_post_init(destinations):
    """Outcome of the pre-fast-path ``__post_init__`` on ``destinations``."""
    if not destinations:
        raise TrafficError("a packet must have at least one destination")
    dests = _normalise(destinations)
    if min(dests) < 0:
        raise TrafficError(f"negative destination in {dests}")
    return dests


@settings(max_examples=400, deadline=None)
@given(_destinations)
def test_packet_normalisation_matches_old(destinations):
    try:
        expected = _old_post_init(destinations)
    except TrafficError as exc:
        with pytest.raises(TrafficError) as caught:
            Packet(0, destinations, 0)
        assert str(caught.value) == str(exc)
        return
    pkt = Packet(0, destinations, 0)
    assert pkt.destinations == expected
    assert type(pkt.destinations) is tuple
    assert all(type(d) is int for d in pkt.destinations)
