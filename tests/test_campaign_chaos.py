"""Chaos harness: SIGKILL real processes mid-campaign, prove recovery.

Two kill targets, two guarantees:

* **Supervisor killed** — a resumed campaign re-executes zero journaled
  points and its final CSV/REPORT artifacts are byte-identical to an
  uninterrupted run's.
* **Worker killed** — the supervisor survives the ``BrokenProcessPool``,
  respawns the pool, retries the lost points and completes with the
  same artifact bytes, all within one process lifetime.

The campaign under chaos is the real ``fig5`` catalogue figure driven
through the real CLI in a subprocess — no injected specs, no mocks.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import resume_campaign

REPO_ROOT = Path(__file__).resolve().parent.parent
FIGURE = "fig5"
SLOTS = 200
SEED = 9
GRID_POINTS = 24  # fig5: 2 algorithms x 12 loads


def _campaign_argv(store_dir: Path) -> list[str]:
    return [
        sys.executable, "-m", "repro", "campaign", "run", str(store_dir),
        "--figures", FIGURE, "--slots", str(SLOTS), "--seed", str(SEED),
        "--workers", "2",
    ]


def _spawn_campaign(store_dir: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.Popen(
        _campaign_argv(store_dir),
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _done_records(journal: Path) -> list[dict]:
    if not journal.is_file():
        return []
    records = []
    for line in journal.read_text().splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            continue  # torn tail from the kill — expected
        if doc.get("status") == "done":
            records.append(doc)
    return records


def _wait_for_done(journal: Path, count: int, *, timeout_s: float = 120.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if len(_done_records(journal)) >= count:
            return
        time.sleep(0.05)
    raise AssertionError(
        f"journal never reached {count} done records within {timeout_s}s"
    )


def _child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` via /proc (Linux only)."""
    children: list[int] = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        for task in task_dir.iterdir():
            text = (task / "children").read_text()
            children.extend(int(c) for c in text.split())
    except OSError:
        pass  # process already gone; caller retries
    return children


def _pids_naming(path: Path) -> list[int]:
    """Live processes whose command line carries ``path`` (forked pool
    workers share their supervisor's)."""
    needle = str(path).encode()
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            if needle in (entry / "cmdline").read_bytes():
                pids.append(int(entry.name))
        except OSError:
            continue  # exited mid-scan
    return pids


@pytest.fixture(scope="module")
def clean_reference(tmp_path_factory):
    """Uninterrupted run of the same campaign: the byte-identity oracle."""
    store_dir = tmp_path_factory.mktemp("chaos") / "clean"
    proc = _spawn_campaign(store_dir)
    stdout, stderr = proc.communicate(timeout=600)
    assert proc.returncode == 0, f"clean campaign failed:\n{stdout}\n{stderr}"
    return {
        "csv": (store_dir / "csv" / f"{FIGURE}.csv").read_bytes(),
        "report": (store_dir / "REPORT.md").read_bytes(),
    }


@pytest.mark.skipif(sys.platform != "linux", reason="needs /proc and SIGKILL")
class TestSupervisorSigkill:
    def test_resume_after_sigkill_is_byte_identical(
        self, tmp_path, clean_reference
    ):
        store_dir = tmp_path / "chaos"
        proc = _spawn_campaign(store_dir)
        try:
            _wait_for_done(store_dir / "journal.jsonl", 3)
        finally:
            # SIGKILL: no handlers, no cleanup, no journal flush beyond
            # what fsync-per-append already guaranteed.
            proc.kill()
            proc.wait(timeout=30)

        journaled = _done_records(store_dir / "journal.jsonl")
        assert 3 <= len(journaled) < GRID_POINTS
        manifest = json.loads((store_dir / "manifest.json").read_text())
        assert manifest["state"] == "running"  # died without a transition

        # The pool's workers watch for their supervisor's death rather
        # than idling (or simulating on) under PID 1 forever.
        deadline = time.monotonic() + 10
        while _pids_naming(store_dir) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _pids_naming(store_dir) == []

        _, stats = resume_campaign(
            store_dir, workers=2, install_signal_handlers=False
        )
        # Zero re-execution: every journaled point was replayed, only the
        # missing remainder ran.
        assert stats.points_skipped == len(journaled)
        assert stats.points_executed == GRID_POINTS - len(journaled)
        assert stats.points_failed == 0

        # No key appears twice as done: nothing was computed twice.
        all_done = _done_records(store_dir / "journal.jsonl")
        keys = [doc["key"] for doc in all_done]
        assert len(keys) == len(set(keys)) == GRID_POINTS

        assert (
            store_dir / "csv" / f"{FIGURE}.csv"
        ).read_bytes() == clean_reference["csv"]
        assert (store_dir / "REPORT.md").read_bytes() == clean_reference["report"]


@pytest.mark.skipif(sys.platform != "linux", reason="needs /proc and SIGKILL")
class TestWorkerSigkill:
    """The pool under test is ``repro.experiments.sweep.PointPool``, the
    one ``run_figure`` drives too, so this is also the worker-death test
    of a plain figure sweep (its hang test: ``tests/test_point_pool.py``).
    """

    def test_pool_respawns_after_worker_kill_and_completes(
        self, tmp_path, clean_reference
    ):
        store_dir = tmp_path / "chaos"
        proc = _spawn_campaign(store_dir)

        # Kill one pool worker once some work is in flight.
        _wait_for_done(store_dir / "journal.jsonl", 1)
        killed = False
        deadline = time.monotonic() + 60
        while not killed and time.monotonic() < deadline:
            for child in _child_pids(proc.pid):
                try:
                    os.kill(child, signal.SIGKILL)
                    killed = True
                    break
                except (ProcessLookupError, PermissionError):
                    continue
            if not killed:
                time.sleep(0.05)
        assert killed, "never found a worker process to kill"

        stdout, stderr = proc.communicate(timeout=600)
        assert proc.returncode == 0, (
            f"campaign did not survive worker kill:\n{stdout}\n{stderr}"
        )
        assert (
            store_dir / "csv" / f"{FIGURE}.csv"
        ).read_bytes() == clean_reference["csv"]
        assert (store_dir / "REPORT.md").read_bytes() == clean_reference["report"]

        # The journal still holds exactly one done record per point.
        keys = [d["key"] for d in _done_records(store_dir / "journal.jsonl")]
        assert len(keys) == len(set(keys)) == GRID_POINTS
