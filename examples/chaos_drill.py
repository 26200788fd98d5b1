"""Chaos drill: SIGKILL a running campaign, resume it, diff the bytes.

The durable campaign runner's core promise is that a campaign killed at
any moment and resumed produces artifacts byte-identical to an
uninterrupted run, re-executing zero journaled points. This script
proves it against real processes, end to end:

1. Run a small campaign to completion (the *clean* reference).
2. Run the same campaign again; once the journal holds ``--kill-after``
   completed points (a seeded slot, so CI drills are reproducible),
   SIGKILL the supervisor process — no handlers, no cleanup — and check
   that its pool workers follow it within a few seconds.
3. ``repro-sim campaign resume`` the killed store.
4. Assert: resumed CSV and REPORT.md bytes equal the clean run's, and
   no point key appears twice as ``done`` in the journal.

Exit code 0 means the drill passed. Any mismatch prints what differed
and exits 1 — CI runs this on every push (see .github/workflows/ci.yml,
job ``campaign-chaos``) and uploads the journal on failure.

Usage::

    python examples/chaos_drill.py --out /tmp/drill --slots 200 --seed 9
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.obs.profiler import clock_ns

__all__ = ["main"]

REPO_ROOT = Path(__file__).resolve().parent.parent


def campaign_argv(action: str, store_dir: Path, args: argparse.Namespace) -> list[str]:
    argv = [
        sys.executable, "-m", "repro", "campaign", action, str(store_dir),
    ]
    if action == "run":
        argv += [
            "--figures", args.figure,
            "--slots", str(args.slots),
            "--seed", str(args.seed),
        ]
    argv += ["--workers", str(args.workers)]
    return argv


def spawn(argv: list[str]) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.Popen(argv, cwd=REPO_ROOT, env=env)


def done_keys(journal: Path) -> list[str]:
    keys = []
    if not journal.is_file():
        return keys
    for line in journal.read_text().splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            continue  # torn tail from the kill — expected and tolerated
        if doc.get("status") == "done":
            keys.append(doc["key"])
    return keys


def pids_naming(path: Path) -> list[int]:
    """Live processes with ``path`` on their command line (Linux /proc;
    forked pool workers carry their supervisor's command line)."""
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="drill output directory")
    parser.add_argument("--figure", default="fig5")
    parser.add_argument("--slots", type=int, default=200)
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--kill-after", type=int, default=None, metavar="N",
        help="SIGKILL once N points are journaled (default: seeded, 2-5)",
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0, help="per-phase seconds"
    )
    args = parser.parse_args()
    kill_after = (
        args.kill_after if args.kill_after is not None
        else 2 + args.seed % 4  # seeded kill slot: reproducible drills
    )

    out = Path(args.out)
    clean_dir = out / "clean"
    chaos_dir = out / "chaos"

    print(f"[1/4] clean reference run -> {clean_dir}")
    proc = spawn(campaign_argv("run", clean_dir, args))
    if proc.wait(timeout=args.timeout) != 0:
        print("FAIL: clean campaign did not complete", file=sys.stderr)
        return 1

    print(f"[2/4] chaos run -> {chaos_dir} (SIGKILL after {kill_after} points)")
    proc = spawn(campaign_argv("run", chaos_dir, args))
    journal = chaos_dir / "journal.jsonl"
    deadline = clock_ns() + args.timeout * 1_000_000_000
    while clock_ns() < deadline and proc.poll() is None:
        if len(done_keys(journal)) >= kill_after:
            break
        time.sleep(0.05)
    if proc.poll() is not None:
        print(
            f"FAIL: campaign finished before reaching {kill_after} points — "
            "raise --slots or lower --kill-after", file=sys.stderr,
        )
        return 1
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=30)
    survivors = len(done_keys(journal))
    print(f"      killed supervisor; {survivors} points survived in journal")
    # Workers exit when their parent does; an orphan would keep simulating
    # under PID 1 and skew whatever runs next on this host.
    deadline = clock_ns() + 10_000_000_000
    while pids_naming(chaos_dir) and clock_ns() < deadline:
        time.sleep(0.1)
    if orphans := pids_naming(chaos_dir):
        print(f"FAIL: workers outlived the supervisor: {orphans}", file=sys.stderr)
        return 1

    print(f"[3/4] resume {chaos_dir}")
    proc = spawn(campaign_argv("resume", chaos_dir, args))
    if proc.wait(timeout=args.timeout) != 0:
        print("FAIL: resume did not complete", file=sys.stderr)
        return 1

    print("[4/4] diff artifacts against the clean run")
    failures = []
    for rel in (f"csv/{args.figure}.csv", "REPORT.md"):
        clean_bytes = (clean_dir / rel).read_bytes()
        chaos_bytes = (chaos_dir / rel).read_bytes()
        verdict = "identical" if clean_bytes == chaos_bytes else "DIFFER"
        print(f"      {rel}: {verdict}")
        if clean_bytes != chaos_bytes:
            failures.append(f"{rel} differs between clean and resumed runs")
    keys = done_keys(journal)
    if len(keys) != len(set(keys)):
        dupes = len(keys) - len(set(keys))
        failures.append(f"{dupes} point(s) were re-executed after resume")
    else:
        print(f"      journal: {len(keys)} done points, zero re-executed")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("chaos drill PASSED: resume is byte-identical, zero re-execution")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
