"""Exhaustive small-state verification.

Property tests sample the trace space; for very small switches the space
is small enough to *enumerate completely*, turning invariant checks into
exhaustive proofs over a bounded domain — the model-checking style of
assurance. :func:`exhaustive_verify` enumerates every possible arrival
trace for an N-port switch over a bounded horizon and runs each through
the simulation engine under the hard-fail runtime sanitizer, so the
invariants it proves are the sanitizer's catalogue (docs/sanitizers.md),
plus guaranteed drain. The equivalence grid, :mod:`repro.verify.grid`,
is imported on its own, so a simulation run never loads it.
"""

from repro.verify.exhaustive import (
    VerificationReport,
    Violation,
    check_trace,
    exhaustive_verify,
)

__all__ = ["check_trace", "exhaustive_verify", "VerificationReport", "Violation"]
