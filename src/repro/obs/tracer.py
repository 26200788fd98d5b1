"""Structured per-slot event tracing (JSONL).

When tracing is on, the engine emits one JSON object per simulated slot
describing everything observable about that slot: arrivals, the crossbar
configuration (which input drove each output), the scheduler's iteration
count and per-round grant counts, fanout splits, buffer-pool reclamations
and the backlog after the slot. The disabled path is a null object
(:data:`NOOP_TRACER`) whose ``enabled`` attribute the engine checks once —
a disabled run never builds a record and never calls into this module.

Record schema (one JSONL line per slot)::

    {
      "slot": 17,                  # slot index, 0-based
      "arrivals": [[0, 3], [2, 1]],# [input_port, fanout] per arriving packet
      "arrived_cells": 4,          # sum of arrival fanouts
      "grants": {"0": 2, "5": 2},  # output port -> granted input port
      "delivered": 2,              # cells delivered this slot
      "rounds": 1,                 # scheduler iterations (FIFOMS rounds)
      "round_grants": [2],         # new input/output matches per round
      "splits": 1,                 # grants that left a fanout residue
      "reclaimed": 0,              # data cells released (fanout exhausted)
      "backlog": 5                 # pending (packet, destination) pairs
    }

Summed over the post-warmup slots, ``delivered`` equals the summary's
``cells_delivered`` (the throughput numerator) — tests pin this identity.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path
from typing import IO

from repro.packet import Packet
from repro.switch.base import SlotResult
from repro.utils.bitsets import iter_bits
from repro.utils.fileio import open_text

__all__ = [
    "NoopTracer",
    "SlotTracer",
    "NOOP_TRACER",
    "build_slot_record",
    "read_trace_records",
]


def build_slot_record(
    slot: int,
    arrivals: Sequence[Packet | None],
    result: SlotResult,
    backlog: int,
) -> dict[str, object]:
    """Assemble the trace record for one completed slot."""
    arr = [[p.input_port, p.fanout] for p in arrivals if p is not None]
    grants = {str(j): p.input_port for p, mask in result.rows for j in iter_bits(mask)}
    return {
        "slot": slot,
        "arrivals": arr,
        "arrived_cells": sum(pair[1] for pair in arr),
        "grants": grants,
        "delivered": result.cells_delivered,
        "rounds": result.rounds,
        "round_grants": list(result.round_grants),
        "splits": result.splits,
        "reclaimed": result.reclaimed,
        "backlog": backlog,
    }


class NoopTracer:
    """Null-object tracer: every operation is a constant no-op.

    Carries no state (``__slots__ = ()``) so constructing or calling it
    allocates nothing; hot-loop call sites guard on :attr:`enabled` and
    never even reach :meth:`emit` when tracing is off.
    """

    __slots__ = ()

    enabled = False

    def emit(self, record: dict[str, object]) -> None:
        """Discard the record (tracing is off)."""

    def flush(self) -> None:
        """Nothing buffered, nothing to flush."""

    def close(self) -> None:
        """Nothing open, nothing to close."""


#: Shared singleton — there is never a reason to hold two NoopTracers.
NOOP_TRACER = NoopTracer()


class SlotTracer:
    """JSONL tracer writing one compact record per :meth:`emit`.

    Parameters
    ----------
    sink:
        File path (opened/truncated immediately; a ``.gz`` suffix —
        ``trace.jsonl.gz`` — writes gzip-compressed JSONL) or any object
        with a ``write(str)`` method (kept open; caller owns its
        lifetime).
    """

    __slots__ = ("_stream", "_owns_stream", "path", "records_written")

    enabled = True

    def __init__(self, sink: str | Path | IO[str]) -> None:
        if hasattr(sink, "write"):
            self._stream: IO[str] = sink  # type: ignore[assignment]
            self._owns_stream = False
            self.path: Path | None = None
        else:
            self.path = Path(sink)  # type: ignore[arg-type]
            self._stream = open_text(self.path, "w")
            self._owns_stream = True
        self.records_written = 0

    def emit(self, record: dict[str, object]) -> None:
        """Write one record as a single JSONL line."""
        self._stream.write(json.dumps(record, separators=(",", ":")) + "\n")
        self.records_written += 1

    def flush(self) -> None:
        """Flush buffered records to the underlying stream."""
        self._stream.flush()

    def close(self) -> None:
        """Flush, and close the stream if this tracer opened it."""
        self.flush()
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "SlotTracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.path) if self.path else "<stream>"
        return f"SlotTracer({where}, records={self.records_written})"


def read_trace_records(path: str | Path) -> list[dict[str, object]]:
    """Load every slot record from a trace file (plain or ``.gz``)."""
    with open_text(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]
