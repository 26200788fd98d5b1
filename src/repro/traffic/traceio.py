"""Trace file I/O: persist and replay arrival traces.

Format: JSON Lines, one packet per line, ordered by (arrival_slot,
input_port)::

    {"slot": 17, "input": 3, "dests": [0, 5, 9]}

A one-line header object carries the port count for validation. The
format round-trips every field the simulator cares about, diffable and
greppable; :func:`load_trace` feeds straight into
:class:`~repro.traffic.trace.TraceTraffic`. Paths ending in ``.gz``
read/write gzip-compressed JSONL (large-N traces shrink ~10x). A file
that does not decode (not UTF-8, not gzip, torn gzip) or holds a bad
record raises :class:`~repro.errors.TrafficError`; so does a record
with a ``priority`` key, which older tagged traces carry and no switch
here can honour.
"""

from __future__ import annotations

import gzip
import json
import zlib
from pathlib import Path
from typing import IO

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
            fh.write(json.dumps(record) + "\n")
    return path


def load_trace(path: str | Path) -> tuple[int, list[Packet]]:
    """Read a JSONL trace file; returns (num_ports, packets)."""
    path = Path(path)
    try:
        with open_text(path) as fh:
            num_ports, packets, declared = _read(path, fh)
    except (UnicodeDecodeError, gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise TrafficError(f"{path}: does not decode ({exc})") from None
    if declared is not None and declared != len(packets):
        raise TrafficError(
            f"{path}: header declares {declared} packets, file has {len(packets)}"
        )
    return num_ports, packets


def _read(path: Path, fh: IO[str]) -> tuple[int, list[Packet], object]:
    """The header's port and packet counts, and the packets, from ``fh``."""
    try:
        header = json.loads(fh.readline())
    except (json.JSONDecodeError, RecursionError) as exc:
        raise TrafficError(f"{path}: not a trace file ({exc})") from None
    if not isinstance(header, dict) or _HEADER_KEY not in header:
        raise TrafficError(f"{path}: missing trace header")
    if header[_HEADER_KEY] != _FORMAT_VERSION:
        raise TrafficError(f"{path}: unsupported trace version {header[_HEADER_KEY]}")
    try:
        num_ports = int(header["num_ports"])
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise TrafficError(f"{path}: bad num_ports in header ({exc!r})") from None
    packets: list[Packet] = []
    for line_no, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            if isinstance(rec, dict) and "priority" in rec:
                raise TrafficError("a priority key; service classes are not modelled")
            packets.append(
                Packet(
                    input_port=int(rec["input"]),
                    destinations=tuple(int(d) for d in rec["dests"]),
                    arrival_slot=int(rec["slot"]),
                )
            )
        except (KeyError, ValueError, TypeError, OverflowError, RecursionError,
                TrafficError) as exc:
            raise TrafficError(f"{path}:{line_no}: bad record ({exc})") from None
    return num_ports, packets, header.get("packets")


def load_trace_traffic(path: str | Path) -> TraceTraffic:
    """Load a trace file directly into a replayable TrafficModel."""
    num_ports, packets = load_trace(path)
    return TraceTraffic(num_ports, packets)
