"""Trace file I/O: persist and replay arrival traces.

Format: JSON Lines, one packet per line, ordered by (arrival_slot,
input_port)::

    {"slot": 17, "input": 3, "dests": [0, 5, 9], "priority": 0}

A one-line header object carries the port count for validation. The
format round-trips every field the simulator cares about, diffable and
greppable; :func:`load_trace` feeds straight into
:class:`~repro.traffic.trace.TraceTraffic`. Paths ending in ``.gz``
read/write gzip-compressed JSONL (large-N traces shrink ~10x).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import TrafficError
from repro.packet import Packet
from repro.traffic.trace import TraceTraffic
from repro.utils.fileio import open_text

__all__ = ["save_trace", "load_trace", "load_trace_traffic"]

_HEADER_KEY = "repro-trace"
_FORMAT_VERSION = 1


def save_trace(path: str | Path, num_ports: int, packets: list[Packet]) -> Path:
    """Write packets to a JSONL trace file; returns the path."""
    path = Path(path)
    ordered = sorted(packets, key=lambda p: (p.arrival_slot, p.input_port))
    with open_text(path, "w") as fh:
        fh.write(
            json.dumps(
                {
                    _HEADER_KEY: _FORMAT_VERSION,
                    "num_ports": num_ports,
                    "packets": len(ordered),
                }
            )
            + "\n"
        )
        for p in ordered:
            record = {
                "slot": p.arrival_slot,
                "input": p.input_port,
                "dests": list(p.destinations),
            }
            if p.priority:
                record["priority"] = p.priority
            fh.write(json.dumps(record) + "\n")
    return path


def load_trace(path: str | Path) -> tuple[int, list[Packet]]:
    """Read a JSONL trace file; returns (num_ports, packets)."""
    path = Path(path)
    packets: list[Packet] = []
    with open_text(path) as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise TrafficError(f"{path}: not a trace file ({exc})") from None
        if not isinstance(header, dict) or _HEADER_KEY not in header:
            raise TrafficError(f"{path}: missing trace header")
        if header[_HEADER_KEY] != _FORMAT_VERSION:
            raise TrafficError(
                f"{path}: unsupported trace version {header[_HEADER_KEY]}"
            )
        try:
            num_ports = int(header["num_ports"])
        except (KeyError, ValueError, TypeError) as exc:
            raise TrafficError(f"{path}: bad num_ports in header ({exc!r})") from None
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                packets.append(
                    Packet(
                        input_port=int(rec["input"]),
                        destinations=tuple(int(d) for d in rec["dests"]),
                        arrival_slot=int(rec["slot"]),
                        priority=int(rec.get("priority", 0)),
                    )
                )
            except (KeyError, ValueError, TypeError, TrafficError) as exc:
                raise TrafficError(f"{path}:{line_no}: bad record ({exc})") from None
    declared = header.get("packets")
    if declared is not None and declared != len(packets):
        raise TrafficError(
            f"{path}: header declares {declared} packets, file has {len(packets)}"
        )
    return num_ports, packets


def load_trace_traffic(path: str | Path) -> TraceTraffic:
    """Load a trace file directly into a replayable TrafficModel."""
    num_ports, packets = load_trace(path)
    return TraceTraffic(num_ports, packets)
