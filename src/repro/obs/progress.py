"""Heartbeat progress reporting for long runs.

One throttled reporter prints the engine's ``--progress`` heartbeat
(slots/sec and backlog every N slots) to a single quiet-able sink.
"""

from __future__ import annotations

import sys
from typing import IO

from repro.obs.profiler import clock_ns

__all__ = ["ProgressReporter", "format_eta"]


def format_eta(seconds: float) -> str:
    """Compact duration for the heartbeat's ETA column (``90`` → "1m30s")."""
    seconds = max(0, int(round(seconds)))
    if seconds < 60:
        return f"{seconds}s"
    minutes, secs = divmod(seconds, 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class ProgressReporter:
    """Prints heartbeat lines to a stream, honouring a quiet switch.

    Parameters
    ----------
    every:
        Emit a heartbeat at most once per ``every`` slots (engine use).
    total:
        Expected slot count, for the percentage column (optional).
    stream:
        Output stream; defaults to stderr so heartbeats never pollute
        JSON/CSV written to stdout.
    quiet:
        Swallow all output (lets callers keep one unconditional code path).
    label:
        Prefix identifying the run (e.g. the algorithm name).
    """

    __slots__ = ("every", "total", "stream", "quiet", "label", "_t0", "_last_emit")

    def __init__(
        self,
        *,
        every: int = 1_000,
        total: int | None = None,
        stream: IO[str] | None = None,
        quiet: bool = False,
        label: str = "",
    ) -> None:
        self.every = max(1, every)
        # total <= 0 means "unknown" — a 0-slot run must not divide by it.
        self.total = total if total and total > 0 else None
        self.stream = stream if stream is not None else sys.stderr
        self.quiet = quiet
        self.label = label
        self._t0: int | None = None
        self._last_emit = 0

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start (or restart) the rate clock; called at loop entry."""
        self._t0 = clock_ns()

    def emit(self, slots_done: int, backlog: int | None = None) -> None:
        """Print one heartbeat: slot position, slots/sec, ETA and backlog.

        Degenerate runs stay readable: with no slots done yet or a
        sub-clock-resolution elapsed time the rate and ETA columns are
        simply omitted rather than printing ``inf`` or dividing by zero.
        """
        if self.quiet:
            return
        now = clock_ns()
        if self._t0 is None:
            self._t0 = now
        elapsed = (now - self._t0) / 1e9
        parts = [f"[progress]{' ' + self.label if self.label else ''}"]
        if self.total:
            parts.append(
                f"slot {slots_done}/{self.total} "
                f"({100 * slots_done / self.total:.1f}%)"
            )
        else:
            parts.append(f"slot {slots_done}")
        if slots_done > 0 and elapsed > 0:
            rate = slots_done / elapsed
            parts.append(f"{rate:,.0f} slots/s")
            if self.total is not None and slots_done < self.total:
                parts.append(f"eta {format_eta((self.total - slots_done) / rate)}")
        if backlog is not None:
            parts.append(f"backlog={backlog}")
        print(" ".join(parts), file=self.stream)
        self._last_emit = slots_done

    def finish(self, slots_done: int, backlog: int | None = None) -> None:
        """Final heartbeat (skipped if one just fired for this slot)."""
        if slots_done != self._last_emit:
            self.emit(slots_done, backlog)
