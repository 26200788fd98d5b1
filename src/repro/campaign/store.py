"""Content-addressed on-disk campaign store: manifest + point journal.

A *campaign store* is the durable half of a figure campaign. It lives in
one directory::

    DIR/
      manifest.json    # campaign configuration + lifecycle state
      journal.jsonl    # append-only per-point records (fsynced per line)
      csv/fig4.csv ... # final per-figure CSVs (atomic, written at the end)
      failures.json    # structured FailedPoint table (when any point died)
      REPORT.md        # final Markdown report (atomic, written at the end)

Every grid point is keyed by a **content address**: the SHA-256 of the
point's full configuration (algorithm, load, ports, traffic spec, slots,
seed, switch kwargs, fault scenario) combined with a *code signature*
hashing every ``repro`` source file. Two consequences:

* A completed point is *checkpointed*: resuming a campaign looks up each
  point's key in the journal and skips the simulation entirely on a hit,
  replaying the stored summary bit-for-bit.
* A code or configuration change invalidates exactly what it should:
  editing any simulator source changes the signature, so a resumed
  campaign on different code recomputes rather than serving stale
  results that the current code would not produce.

The journal is append-only JSON Lines. Each record is one completed or
failed point attempt, written with flush + fsync before the supervisor
moves on — a SIGKILL can lose at most the points that were mid-flight,
never a completed one. The reader tolerates a truncated final line
(the signature of a crash mid-append) by dropping it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path
from typing import IO, Any

from repro.errors import CampaignError
from repro.experiments.spec import SweepPoint
from repro.stats.summary import SimulationSummary
from repro.utils.fileio import atomic_write_text

__all__ = [
    "CampaignStore",
    "PointRecord",
    "code_signature",
    "point_key",
]

#: Bump to invalidate every existing store on disk (format changes).
STORE_FORMAT = 1

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"

#: Manifest lifecycle states, in the order a campaign moves through them.
STATES = ("running", "interrupted", "failed", "complete")

_signature_cache: dict[str, str] = {}


def code_signature() -> str:
    """Digest of every ``repro`` source file — the executable's identity.

    Any edit to the simulator invalidates every journaled point:
    correctness is never traded for reuse. The walk is sorted so the digest is stable across
    filesystems, and cached per process (the tree cannot change under a
    running supervisor without invalidating far more than this cache).
    """
    package_dir = Path(__file__).resolve().parent.parent
    cache_key = str(package_dir)
    cached = _signature_cache.get(cache_key)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    h.update(f"format={STORE_FORMAT};".encode())
    for source in sorted(package_dir.rglob("*.py")):
        h.update(str(source.relative_to(package_dir)).encode())
        h.update(source.read_bytes())
    digest = h.hexdigest()
    _signature_cache[cache_key] = digest
    return digest


def _canonical(value: Any) -> Any:
    """JSON-stable form of a point field (dicts sorted, tuples listed)."""
    if isinstance(value, Mapping):
        return {str(k): _canonical(value[k]) for k in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def point_key(point: SweepPoint, signature: str | None = None) -> str:
    """Content address of one sweep point under one code signature.

    The key covers every field that influences the simulation's output;
    two points with equal keys are guaranteed to produce bit-identical
    summaries, which is what makes skip-on-resume safe.
    """
    payload = {
        "figure_id": point.figure_id,
        "algorithm": point.algorithm,
        "load": point.load,
        "num_ports": point.num_ports,
        "traffic_spec": _canonical(point.traffic_spec),
        "num_slots": point.num_slots,
        "seed": point.seed,
        "switch_kwargs": _canonical(point.switch_kwargs),
        "collect_telemetry": point.collect_telemetry,
        "fault_scenario": _canonical(point.fault_scenario),
    }
    h = hashlib.sha256()
    h.update((signature if signature is not None else code_signature()).encode())
    h.update(json.dumps(payload, sort_keys=True).encode())
    return h.hexdigest()


def _finite_or_repr(value: Any) -> Any:
    """Encode non-finite floats as tagged strings (JSON has no NaN)."""
    if isinstance(value, float) and not math.isfinite(value):
        return {"__float__": repr(value)}
    if isinstance(value, Mapping):
        return {k: _finite_or_repr(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_repr(v) for v in value]
    return value


def _decode_floats(value: Any) -> Any:
    if isinstance(value, Mapping):
        if set(value) == {"__float__"}:
            return float(value["__float__"])
        return {k: _decode_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_floats(v) for v in value]
    return value


class PointRecord:
    """One journal line: a completed or failed point, fully self-contained.

    ``status`` is ``"done"`` (``summary`` holds the full
    :class:`~repro.stats.summary.SimulationSummary` dict, non-finite
    floats round-tripped exactly) or ``"failed"`` (``error_type`` /
    ``message`` describe the last error). ``attempts``, ``elapsed_s`` and
    ``backoff_s`` carry the retry provenance either way.
    """

    __slots__ = (
        "key", "figure_id", "algorithm", "load", "seed", "status",
        "attempts", "elapsed_s", "backoff_s", "summary",
        "error_type", "message",
    )

    def __init__(
        self,
        *,
        key: str,
        figure_id: str,
        algorithm: str,
        load: float,
        seed: int,
        status: str,
        attempts: int,
        elapsed_s: float,
        backoff_s: float,
        summary: dict[str, Any] | None = None,
        error_type: str = "",
        message: str = "",
    ) -> None:
        if status not in ("done", "failed"):
            raise CampaignError(f"invalid journal status {status!r}")
        self.key = key
        self.figure_id = figure_id
        self.algorithm = algorithm
        self.load = load
        self.seed = seed
        self.status = status
        self.attempts = attempts
        self.elapsed_s = elapsed_s
        self.backoff_s = backoff_s
        self.summary = summary
        self.error_type = error_type
        self.message = message

    # ------------------------------------------------------------------ #
    @classmethod
    def done(
        cls,
        key: str,
        point: SweepPoint,
        summary: SimulationSummary,
        *,
        attempts: int,
        elapsed_s: float,
        backoff_s: float,
    ) -> "PointRecord":
        return cls(
            key=key,
            figure_id=point.figure_id,
            algorithm=point.algorithm,
            load=point.load,
            seed=point.seed,
            status="done",
            attempts=attempts,
            elapsed_s=elapsed_s,
            backoff_s=backoff_s,
            summary=summary.to_dict(),
        )

    @classmethod
    def failed(
        cls,
        key: str,
        point: SweepPoint,
        *,
        error_type: str,
        message: str,
        attempts: int,
        elapsed_s: float,
        backoff_s: float,
    ) -> "PointRecord":
        return cls(
            key=key,
            figure_id=point.figure_id,
            algorithm=point.algorithm,
            load=point.load,
            seed=point.seed,
            status="failed",
            attempts=attempts,
            elapsed_s=elapsed_s,
            backoff_s=backoff_s,
            error_type=error_type,
            message=message,
        )

    # ------------------------------------------------------------------ #
    def to_json_line(self) -> str:
        """Serialize to one journal line (non-finite floats tagged)."""
        doc: dict[str, Any] = {
            "key": self.key,
            "figure_id": self.figure_id,
            "algorithm": self.algorithm,
            "load": self.load,
            "seed": self.seed,
            "status": self.status,
            "attempts": self.attempts,
            "elapsed_s": self.elapsed_s,
            "backoff_s": self.backoff_s,
        }
        if self.status == "done":
            doc["summary"] = _finite_or_repr(self.summary)
        else:
            doc["error_type"] = self.error_type
            doc["message"] = self.message
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json_line(cls, line: str) -> "PointRecord":
        doc = json.loads(line)
        return cls(
            key=doc["key"],
            figure_id=doc["figure_id"],
            algorithm=doc["algorithm"],
            load=float(doc["load"]),
            seed=int(doc["seed"]),
            status=doc["status"],
            attempts=int(doc["attempts"]),
            elapsed_s=float(doc["elapsed_s"]),
            backoff_s=float(doc["backoff_s"]),
            summary=_decode_floats(doc.get("summary")),
            error_type=doc.get("error_type", ""),
            message=doc.get("message", ""),
        )

    def to_summary(self) -> SimulationSummary:
        """Reconstruct the journaled summary, bit-identical to the original."""
        if self.summary is None:
            raise CampaignError(
                f"journal record for {self.algorithm}@{self.load} has no summary"
            )
        return SimulationSummary(**self.summary)


class CampaignStore:
    """The on-disk side of a durable campaign: manifest + journal.

    One store = one campaign configuration. :meth:`create` stamps the
    manifest with the config and the current code signature;
    :meth:`open` validates both on resume and raises
    :class:`~repro.errors.CampaignError` on mismatch rather than quietly
    mixing incompatible results.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.manifest_path = self.directory / MANIFEST_NAME
        self.journal_path = self.directory / JOURNAL_NAME
        self.manifest: dict[str, Any] = {}
        self._journal_fh: IO[str] | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        directory: str | Path,
        *,
        figure_ids: Sequence[str],
        num_slots: int,
        seed: int,
        signature: str | None = None,
    ) -> "CampaignStore":
        """Initialize a fresh store (or re-open a matching one).

        Creating over an existing store with the *same* configuration is
        allowed — ``campaign run`` on a directory that already holds a
        compatible journal simply resumes it. A conflicting manifest is
        an error; durability must never silently discard results.
        """
        store = cls(directory)
        if store.manifest_path.exists():
            existing = cls.open(directory)
            want = (tuple(figure_ids), num_slots, seed)
            have = (
                tuple(existing.manifest["figure_ids"]),
                existing.manifest["num_slots"],
                existing.manifest["seed"],
            )
            if want != have:
                raise CampaignError(
                    f"campaign store {store.directory} already holds a "
                    f"different campaign (figures={have[0]}, slots={have[1]}, "
                    f"seed={have[2]}); requested {want} — use a fresh "
                    "directory or resume with the stored configuration"
                )
            return existing
        store.directory.mkdir(parents=True, exist_ok=True)
        store.manifest = {
            "format": STORE_FORMAT,
            "figure_ids": list(figure_ids),
            "num_slots": int(num_slots),
            "seed": int(seed),
            "signature": signature if signature is not None else code_signature(),
            "state": "running",
        }
        store._write_manifest()
        store.journal_path.touch()
        return store

    @classmethod
    def open(cls, directory: str | Path) -> "CampaignStore":
        """Open an existing store for resume/status; validate the manifest."""
        store = cls(directory)
        try:
            store.manifest = json.loads(store.manifest_path.read_text())
        except FileNotFoundError:
            raise CampaignError(
                f"{store.directory} is not a campaign store "
                f"(no {MANIFEST_NAME}); run 'repro-sim campaign run' first"
            ) from None
        except (OSError, ValueError) as exc:
            raise CampaignError(
                f"unreadable campaign manifest {store.manifest_path}: {exc}"
            ) from exc
        if store.manifest.get("format") != STORE_FORMAT:
            raise CampaignError(
                f"campaign store format {store.manifest.get('format')!r} "
                f"unsupported (expected {STORE_FORMAT})"
            )
        return store

    def _write_manifest(self) -> None:
        atomic_write_text(
            self.manifest_path, json.dumps(self.manifest, indent=2) + "\n"
        )

    @property
    def state(self) -> str:
        return str(self.manifest.get("state", "running"))

    def set_state(self, state: str) -> None:
        """Atomically record a lifecycle transition in the manifest."""
        if state not in STATES:
            raise CampaignError(f"unknown campaign state {state!r}")
        self.manifest["state"] = state
        self._write_manifest()

    @property
    def signature(self) -> str:
        return str(self.manifest.get("signature", ""))

    def signature_current(self) -> bool:
        """Whether the journaled results were produced by this exact code."""
        return self.signature == code_signature()

    # ------------------------------------------------------------------ #
    # Journal
    # ------------------------------------------------------------------ #
    def append(self, record: PointRecord) -> None:
        """Append one journal record durably (write + flush + fsync).

        The fsync is the checkpoint guarantee: once this returns, a
        SIGKILL cannot un-complete the point. The handle is kept open
        across appends; sequential appends to one fd are ordered.
        """
        if self._journal_fh is None or self._journal_fh.closed:
            self._journal_fh = self.journal_path.open("a", encoding="utf-8")
        self._journal_fh.write(record.to_json_line() + "\n")
        self._journal_fh.flush()
        os.fsync(self._journal_fh.fileno())

    def close(self) -> None:
        """Close the journal handle (flushing is per-append; nothing lost)."""
        if self._journal_fh is not None and not self._journal_fh.closed:
            self._journal_fh.close()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def read_journal(self) -> list[PointRecord]:
        """Every parseable journal record, in append order.

        A truncated or corrupt *final* line is the expected signature of
        a crash mid-append and is dropped silently; a corrupt line in the
        middle of the journal means something else wrote to the file and
        raises :class:`~repro.errors.CampaignError`.
        """
        try:
            raw = self.journal_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return []
        lines = raw.split("\n")
        # A well-formed journal ends with "\n", so the final split piece
        # is empty; anything else is a torn tail from a crash mid-write.
        torn_tail = lines.pop() != ""
        records: list[PointRecord] = []
        for idx, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                records.append(PointRecord.from_json_line(line))
            except (ValueError, KeyError, CampaignError) as exc:
                if idx == len(lines) - 1 and not torn_tail:
                    # Corrupt last complete line: treat like a torn tail.
                    break
                raise CampaignError(
                    f"corrupt campaign journal {self.journal_path} at line "
                    f"{idx + 1}: {exc}"
                ) from exc
        return records

    def checkpoints(self) -> dict[str, PointRecord]:
        """Latest record per point key (later records supersede earlier).

        Only ``done`` records are checkpoints — failed points stay
        eligible for re-execution on resume, so a transient environment
        failure never becomes permanent.
        """
        latest: dict[str, PointRecord] = {}
        for record in self.read_journal():
            latest[record.key] = record
        return {k: r for k, r in latest.items() if r.status == "done"}

    def failures(self) -> dict[str, PointRecord]:
        """Latest ``failed`` record per key not superseded by a ``done``."""
        latest: dict[str, PointRecord] = {}
        for record in self.read_journal():
            latest[record.key] = record
        return {k: r for k, r in latest.items() if r.status == "failed"}

    # ------------------------------------------------------------------ #
    # Final artifacts
    # ------------------------------------------------------------------ #
    @property
    def csv_dir(self) -> Path:
        return self.directory / "csv"

    def write_failures_artifact(self, failures: Iterable[PointRecord]) -> Path:
        """Persist the structured failure table (``failures.json``).

        The run-dir dashboard (``repro-sim report``) renders this as the
        failure table with attempts / elapsed / backoff columns.
        """
        doc = {
            "failures": [
                {
                    "figure_id": r.figure_id,
                    "algorithm": r.algorithm,
                    "load": r.load,
                    "seed": r.seed,
                    "error_type": r.error_type,
                    "message": r.message,
                    "attempts": r.attempts,
                    "elapsed_s": round(r.elapsed_s, 3),
                    "backoff_s": round(r.backoff_s, 3),
                }
                for r in sorted(
                    failures, key=lambda r: (r.figure_id, r.algorithm, r.load)
                )
            ]
        }
        path = self.directory / "failures.json"
        atomic_write_text(path, json.dumps(doc, indent=2) + "\n")
        return path
