"""The value-object contract of :class:`repro.packet.Packet`.

``Packet`` is a frozen, slotted dataclass with a hand-written
constructor; these tests hold the behaviour the dataclass machinery
promises to every reader: immutability, pickling, ``replace`` (which
runs the constructor's checks again), explicit ids and the field list.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.errors import TrafficError
from repro.packet import Packet


def test_assignment_is_refused():
    p = Packet(0, (1,), 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.arrival_slot = 3  # type: ignore[misc]
    with pytest.raises(dataclasses.FrozenInstanceError):
        del p.packet_id


def test_pickle_round_trip_keeps_the_id():
    p = Packet(2, (0, 3), 7)
    q = pickle.loads(pickle.dumps(p))
    assert q == p and hash(q) == hash(p)
    assert q.packet_id == p.packet_id


def test_replace_checks_again():
    p = Packet(0, (1,), 0)
    with pytest.raises(TrafficError, match="negative arrival slot -1"):
        dataclasses.replace(p, arrival_slot=-1)
    q = dataclasses.replace(p, destinations=(3, 1, 3))
    assert q.destinations == (1, 3) and q.packet_id == p.packet_id


def test_explicit_packet_id_is_honoured():
    p = Packet(1, (2,), 4, packet_id=123_456)
    assert p.packet_id == 123_456
    assert p == Packet(1, (2,), 4, 123_456)
    assert repr(p) == (
        "Packet(input_port=1, destinations=(2,), arrival_slot=4, "
        "packet_id=123456)"
    )


def test_fields_in_order():
    assert [f.name for f in dataclasses.fields(Packet)] == [
        "input_port",
        "destinations",
        "arrival_slot",
        "packet_id",
    ]


@pytest.mark.parametrize(
    "args, message",
    [
        ((-1, (0,), -3), "negative input port -1"),
        ((0, (0,), -3), "negative arrival slot -3"),
        ((-1, (-1,), -1), "negative destination"),
    ],
)
def test_checks_messages_and_order(args, message):
    # Each row also breaks every later check: the first failing check
    # names the error. The destination checks and messages are held to
    # the original normaliser by tests/test_traffic_stream_identity.py.
    with pytest.raises(TrafficError, match=message):
        Packet(*args)
