"""Tests for trace file I/O."""

from __future__ import annotations

import gzip
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TrafficError
from repro.packet import Packet
from repro.traffic.bernoulli import BernoulliMulticastTraffic
from repro.traffic.trace import record_trace
from repro.traffic.traceio import load_trace, load_trace_traffic, save_trace


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        model = BernoulliMulticastTraffic(8, p=0.4, b=0.3, rng=3)
        packets = record_trace(model, 50)
        path = save_trace(tmp_path / "t.jsonl", 8, packets)
        num_ports, loaded = load_trace(path)
        assert num_ports == 8
        assert len(loaded) == len(packets)
        for orig, back in zip(
            sorted(packets, key=lambda p: (p.arrival_slot, p.input_port)), loaded
        ):
            assert back.arrival_slot == orig.arrival_slot
            assert back.input_port == orig.input_port
            assert back.destinations == orig.destinations

    def test_loads_as_traffic_model(self, tmp_path):
        pkts = [Packet(0, (1, 2), 0), Packet(1, (0,), 1)]
        path = save_trace(tmp_path / "m.jsonl", 4, pkts)
        traffic = load_trace_traffic(path)
        lane0 = traffic.next_slot()
        assert lane0[0].destinations == (1, 2)

    def test_replay_through_simulation(self, tmp_path):
        """Simulations driven by a saved trace reproduce exactly."""
        from repro.sim.config import SimulationConfig
        from repro.sim.engine import SimulationEngine
        from repro.switch.output_queue import OutputQueuedSwitch

        model = BernoulliMulticastTraffic(4, p=0.5, b=0.5, rng=7)
        packets = record_trace(model, 30)
        path = save_trace(tmp_path / "sim.jsonl", 4, packets)

        def run():
            cfg = SimulationConfig(
                num_slots=60, warmup_fraction=0.0, stability_window=0
            )
            return SimulationEngine(
                OutputQueuedSwitch(4), load_trace_traffic(path), cfg
            ).run()

        a, b = run(), run()
        assert a.average_output_delay == b.average_output_delay
        assert a.cells_delivered == b.cells_delivered


class TestGzipRoundTrip:
    def test_save_load_identity_gz(self, tmp_path):
        """A ``.gz`` trace file round-trips packet-for-packet."""
        model = BernoulliMulticastTraffic(8, p=0.4, b=0.3, rng=3)
        packets = record_trace(model, 50)
        path = save_trace(tmp_path / "t.jsonl.gz", 8, packets)
        assert path.read_bytes()[:2] == b"\x1f\x8b"  # actually gzip on disk
        num_ports, loaded = load_trace(path)
        assert num_ports == 8
        assert len(loaded) == len(packets)

    def test_gz_and_plain_decode_identically(self, tmp_path):
        model = BernoulliMulticastTraffic(4, p=0.5, b=0.5, rng=7)
        packets = record_trace(model, 30)
        plain = save_trace(tmp_path / "t.jsonl", 4, packets)
        gz = save_trace(tmp_path / "t.jsonl.gz", 4, packets)

        def key(trace):
            num_ports, pkts = trace
            return num_ports, [
                (p.arrival_slot, p.input_port, p.destinations)
                for p in pkts
            ]

        assert key(load_trace(plain)) == key(load_trace(gz))

    def test_gz_replay_as_traffic_model(self, tmp_path):
        pkts = [Packet(0, (1, 2), 0), Packet(1, (0,), 1)]
        path = save_trace(tmp_path / "m.jsonl.gz", 4, pkts)
        traffic = load_trace_traffic(path)
        assert traffic.next_slot()[0].destinations == (1, 2)


class TestOpenText:
    def test_mode_validation(self, tmp_path):
        from repro.utils.fileio import open_text

        with pytest.raises(ValueError, match="mode"):
            open_text(tmp_path / "x.jsonl", "rb")

    def test_append_mode_gz(self, tmp_path):
        from repro.utils.fileio import is_gzip_path, open_text

        path = tmp_path / "log.jsonl.gz"
        assert is_gzip_path(path) and not is_gzip_path(tmp_path / "log.jsonl")
        for chunk in ("one\n", "two\n"):
            with open_text(path, "a") as fh:
                fh.write(chunk)
        with open_text(path) as fh:
            assert fh.read() == "one\ntwo\n"


class TestErrorHandling:
    def test_missing_header(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"slot": 0, "input": 0, "dests": [1]}\n')
        with pytest.raises(TrafficError, match="header"):
            load_trace(p)

    def test_not_json(self, tmp_path):
        p = tmp_path / "garbage.jsonl"
        p.write_text("hello world\n")
        with pytest.raises(TrafficError):
            load_trace(p)

    def test_bad_record(self, tmp_path):
        p = tmp_path / "rec.jsonl"
        p.write_text(
            json.dumps({"repro-trace": 1, "num_ports": 4, "packets": 1})
            + '\n{"slot": 0}\n'
        )
        with pytest.raises(TrafficError, match=":2"):
            load_trace(p)

    @pytest.mark.parametrize(
        "header",
        [{"repro-trace": 1}, {"repro-trace": 1, "num_ports": "eight"}],
        ids=["missing", "not-an-int"],
    )
    def test_bad_num_ports(self, tmp_path, header):
        p = tmp_path / "ports.jsonl"
        p.write_text(json.dumps(header) + "\n")
        with pytest.raises(TrafficError, match="num_ports"):
            load_trace(p)

    @pytest.mark.parametrize(
        "record",
        [
            {"slot": 0, "input": 0, "dests": []},
            {"slot": -1, "input": 0, "dests": [1]},
            {"slot": 0, "input": 0, "dests": [1], "priority": 1},
        ],
        ids=["no-dests", "negative-slot", "priority-key"],
    )
    def test_record_packet_rejects_names_its_line(self, tmp_path, record):
        p = tmp_path / "rec.jsonl"
        p.write_text(
            json.dumps({"repro-trace": 1, "num_ports": 4, "packets": 1})
            + "\n"
            + json.dumps(record)
            + "\n"
        )
        with pytest.raises(TrafficError, match=re.escape(f"{p}:2: bad record")):
            load_trace(p)

    def test_count_mismatch(self, tmp_path):
        p = tmp_path / "count.jsonl"
        p.write_text(
            json.dumps({"repro-trace": 1, "num_ports": 4, "packets": 5}) + "\n"
        )
        with pytest.raises(TrafficError, match="declares"):
            load_trace(p)

    def test_version_check(self, tmp_path):
        p = tmp_path / "v.jsonl"
        p.write_text(json.dumps({"repro-trace": 99, "num_ports": 4}) + "\n")
        with pytest.raises(TrafficError, match="version"):
            load_trace(p)

    def test_blank_lines_tolerated(self, tmp_path):
        p = tmp_path / "blank.jsonl"
        p.write_text(
            json.dumps({"repro-trace": 1, "num_ports": 4, "packets": 1})
            + '\n\n{"slot": 0, "input": 0, "dests": [1]}\n\n'
        )
        _, packets = load_trace(p)
        assert len(packets) == 1


class TestUndecodable:
    """A file that does not decode is a :class:`TrafficError`, as a bad
    record is, so ``trace run`` reports it instead of a traceback."""

    def _valid(self) -> bytes:
        header = {"repro-trace": 1, "num_ports": 4, "packets": 1}
        return (json.dumps(header) + '\n{"slot": 0, "input": 0, "dests": [1]}\n').encode()

    @pytest.mark.parametrize(
        "name, payload",
        [
            ("t.jsonl", b'{"repro-trace": 1, "num_ports": 4}\n\xff\xfe\n'),
            ("t.jsonl.gz", b"plain text, not gzip\n"),
            ("t.jsonl.gz", None),
        ],
        ids=["not-utf8", "not-gzip", "torn-gzip"],
    )
    def test_decode_failures_raise_traffic_error(self, tmp_path, name, payload):
        if payload is None:
            payload = gzip.compress(self._valid())[:-12]
        p = tmp_path / name
        p.write_bytes(payload)
        with pytest.raises(TrafficError, match="does not decode"):
            load_trace(p)

    def test_cli_trace_run_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        p = tmp_path / "torn.jsonl.gz"
        p.write_bytes(gzip.compress(self._valid())[:-12])
        assert main(["trace", "run", "--file", str(p), "-a", "fifoms"]) == 2
        assert "does not decode" in capsys.readouterr().err

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.binary(max_size=200), zipped=st.booleans(), cut=st.integers(0, 60))
    def test_arbitrary_bytes_give_a_trace_or_traffic_error(self, tmp_path, data,
                                                           zipped, cut):
        p = tmp_path / ("t.jsonl.gz" if zipped else "t.jsonl")
        if zipped:
            data = gzip.compress(data)
            data = data[: len(data) - cut]
        p.write_bytes(data)
        try:
            num_ports, packets = load_trace(p)
        except TrafficError:
            return
        assert isinstance(num_ports, int) and isinstance(packets, list)

    def test_arbitrary_bytes_after_a_valid_header(self, tmp_path):
        """Record lines that are JSON but not records, nest past the
        decoder's recursion limit, or are not UTF-8."""
        p = tmp_path / "t.jsonl"
        p.write_bytes(b"[" * 100_000 + b"\n")
        with pytest.raises(TrafficError, match="not a trace file"):
            load_trace(p)
        header = json.dumps({"repro-trace": 1, "num_ports": 4}).encode() + b"\n"
        for tail in (b"[1, 2]\n", b'"dests"\n', b"3\n", b"Infinity\n", b"\x80\n",
                     b"[" * 100_000 + b"\n",
                     b'{"slot": 0, "input": 0, "dests": [NaN]}\n',
                     b'{"slot": Infinity, "input": 0, "dests": [1]}\n'):
            p.write_bytes(header + tail)
            with pytest.raises(TrafficError):
                load_trace(p)
