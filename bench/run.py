#!/usr/bin/env python3
"""The repo's benchmark: end-to-end and per-layer, one command.

Two ways in, one set of workloads, children and checks:

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    The contract in BENCHMARK.json. Repeats workload W in fresh child
    processes for about S seconds of wall time and prints, as the last
    line of stdout, one JSON object with ``correct`` / ``attempted`` /
    ``failed`` / ``metrics``: the end-to-end medians with ``--trace 0``,
    every per-layer metric with ``--trace 1``.

``python3 bench/run.py [--out FILE] [--selfcheck] [--update-golden]``
    The whole ledger: every workload, 5 repeats interleaved round-robin
    (repeat 1 of every workload, then repeat 2, ...) so slow host drift
    is spread evenly, then one traced pass per workload. Prints every
    metric by name with its unit and writes a result file that
    ``bench/compare.py`` reads.

The driver is a closed loop of one: a single process that runs one child
at a time; only the two sweep workloads fan out, to exactly 2 workers.
Timings are host wall-clock. Throughput and set-up time are scaled to
the calm reference box by the host speed each child measures just before
and after its untouched timed call (calibrate.py); simulated statistics
feed only the correctness check and the exact counts. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import compare
from compare import FAILED_SHARE
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
#: What a run leaves behind lands here (git-ignored): campaign stores,
#: spans, the latest result file.
WORK = BENCH / ".work"
DEFAULT_OUT = WORK / "latest.json"

#: Repeats per workload. Each end-to-end metric is the median over them.
REPEATS = 5

#: The clock ``repro.obs.profiler.clock_ns`` aliases; read here only to
#: stamp the spawn instant a child measures its import time from.
clock_ns = time.perf_counter_ns

#: Per-layer metrics that are counts of simulated events: deterministic
#: for a seed, so two runs must agree bit-for-bit.
EXACT_COUNTS = (
    "traffic.packets_per_slot",
    "traffic.cells_per_slot",
    "kernel.admit_calls_per_slot",
    "kernel.deliveries_per_slot",
    "scheduler.rounds_per_slot",
    "scheduler.grants_per_round",
    "experiments.points",
)

CHILD_TIMEOUT_S = 170


def load_spec() -> dict[str, Any]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [w["name"] for w in spec["workloads"]]
    if declared != list(WORKLOADS):
        raise SystemExit(
            f"BENCHMARK.json workloads {declared} != bench/workloads.py "
            f"{list(WORKLOADS)}"
        )
    return spec


# --------------------------------------------------------------------- #
# The one child-launch helper
# --------------------------------------------------------------------- #
def launch_child(workload: str, kind: str, seed: int, scale: int) -> dict[str, Any]:
    """Run one repeat in a fresh process and return its record.

    Every ``REPRO_*`` variable is scrubbed (the engine consults
    ``$REPRO_SANITIZE`` when ``sanitize`` is left unset; the child
    refuses to run if one survives). A child that dies, times out or
    prints no record comes back as ``{"error": ...}``.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    job = {
        "workload": workload, "kind": kind, "seed": seed, "scale": scale,
        "spawn_ns": clock_ns(),
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(job)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"workload": workload, "kind": kind,
                "error": f"no result within {CHILD_TIMEOUT_S}s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"workload": workload, "kind": kind,
                "error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


# --------------------------------------------------------------------- #
# Correctness: operations attempted and failed
# --------------------------------------------------------------------- #
def check_operations(
    workload: str, records: list[dict[str, Any]], golden: dict[str, str] | None
) -> tuple[int, list[str]]:
    """Count operations over ``records`` and describe each failure.

    A single run is one operation. It fails if the child died, the run
    ended unstable or short of the slots asked, its digest differs from
    the first repeat's (same seed, so same answer), or differs from the
    pin in golden.json. A sweep is one operation per grid point plus one
    per Fig. 4 paper claim; an unstable point past saturation is the
    paper's expected behaviour (TATRA at 0.9), so only the digest rules
    apply to it. Claims are pinned PASS at the default seed; at other
    seeds short runs legitimately flip a qualitative claim, so there the
    verdict only has to repeat.
    """
    may_saturate = WORKLOADS[workload].kind != "run"
    # A child that died fails as many operations as a whole one holds.
    per_record = max((len(r.get("ops", ())) for r in records), default=0) or 1
    reference: dict[str, str] = {}
    attempted = 0
    failures = []
    for index, record in enumerate(records):
        where = f"{workload}[{record['kind']} {index}]"
        if "error" in record:
            attempted += per_record
            failures += [f"{where}: {record['error']}"] * per_record
            continue
        attempted += len(record["ops"])
        for op in record["ops"]:
            tag = f"{where} {op['id']}"
            if "error" in op:
                failures.append(f"{tag}: {op['error']}")
                continue
            digest = op["digest"]
            short = op.get("slots_run", 0) < op.get("slots_asked", 0)
            if op.get("unstable") and not may_saturate:
                failures.append(f"{tag}: ended unstable")
            elif short and not op.get("unstable"):
                failures.append(
                    f"{tag}: ran {op['slots_run']} of {op['slots_asked']} slots"
                )
            elif digest != reference.setdefault(op["id"], digest):
                failures.append(f"{tag}: digest differs between repeats")
            elif golden is not None and golden.get(op["id"], digest) != digest:
                failures.append(f"{tag}: digest differs from golden.json")
    return attempted, failures


def load_golden(seed: int, scale: int) -> dict[str, dict[str, str]]:
    """Pinned digests, valid only for the default seed at full size."""
    if seed != DEFAULT_SEED or scale != 1 or not GOLDEN.exists():
        return {}
    return json.loads(GOLDEN.read_text())["workloads"]


def workload_digest(record: dict[str, Any]) -> str:
    """The run's digest, or for sweeps the sha256 over the per-point
    digests (and claim verdicts) in grid order."""
    digests = [op.get("digest", "failed") for op in record["ops"]]
    if len(digests) == 1:
        return digests[0]
    return hashlib.sha256("".join(digests).encode()).hexdigest()


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #
def distribution(values: list[float]) -> dict[str, Any]:
    """Median, quartiles, range and sample count of one metric."""
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    )
    return {
        "median": statistics.median(values),
        "q1": q1, "q3": q3,
        "min": min(values), "max": max(values),
        "n": len(values), "values": values,
    }


def good(records: list[dict[str, Any]], kind: str) -> list[dict[str, Any]]:
    return [r for r in records if r["kind"] == kind and "error" not in r]


def calm_s(record: dict[str, Any], *spans: str) -> float:
    """Seconds the named ``*_ns`` spans of ``record`` would have taken on
    the calm reference box: host wall-clock times the host speed the
    child saw around its timed call (see calibrate.py)."""
    return sum(record[span] for span in spans) / 1e9 * record["host_speed"]


def end_to_end(records: list[dict[str, Any]]) -> dict[str, list[float]]:
    """Per-repeat values of the end-to-end metrics (tracing off)."""
    timed = good(records, "timed")
    return {
        "slots_per_s": [r["slots_run"] / calm_s(r, "wall_ns") for r in timed],
        "peak_rss_mb": [r["rss_kb"] / 1024 for r in timed],
        "setup_s": [calm_s(r, "t_import_ns", "t_build_ns") for r in timed],
    }


def per_layer(
    workload: str, store: dict[str, list[dict[str, Any]]]
) -> dict[str, float]:
    """Per-layer metrics of ``workload``: the median over its traced
    children, plus the ratios that need two kinds of child."""
    records = store[workload]
    timed_wall = [calm_s(r, "wall_ns") for r in good(records, "timed")]
    layers: dict[str, list[float]] = {}
    for record in records:
        for name, value in record.get("layers", {}).items():
            layers.setdefault(name, []).append(value)
    out = {name: statistics.median(values) for name, values in layers.items()}
    kind = WORKLOADS[workload].kind
    traced_wall = [calm_s(r, "wall_ns") for r in good(records, "traced")]
    if kind == "run" and traced_wall and timed_wall:
        base = statistics.median(timed_wall)
        out["trace.overhead_pct"] = (
            100.0 * (statistics.median(traced_wall) - base) / base
        )
    serial_sum = [
        r["layers"]["experiments.point_s_sum"] * r["host_speed"]
        for r in good(records, "points")
    ]
    if serial_sum and timed_wall:
        out["experiments.pool_efficiency"] = statistics.median(serial_sum) / (
            2 * statistics.median(timed_wall)
        )
    sweep_wall = [
        calm_s(r, "wall_ns") for r in good(store.get("fig4_sweep_pool", []), "timed")
    ]
    if kind == "campaign" and timed_wall and sweep_wall:
        out["campaign.overhead_ratio"] = statistics.median(
            timed_wall
        ) / statistics.median(sweep_wall)
    return out


def traced_plan(workload: str) -> list[tuple[str, str]]:
    """The (workload, kind) children a traced pass adds to the timed ones."""
    recipe = WORKLOADS[workload]
    if recipe.kind == "sweep":
        return [(workload, "points")]
    if recipe.kind == "campaign":
        return [(workload, "traced"), (workload, "points")]
    plan = [(workload, "traced")]
    if recipe.guarded:
        plan.append((workload, "ratios"))
    return plan


# --------------------------------------------------------------------- #
# Contract mode: one workload, one JSON line
# --------------------------------------------------------------------- #
def run_contract(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    name = args.workload
    cycle = [(name, "timed")]
    if args.trace:
        cycle += traced_plan(name)
        if WORKLOADS[name].kind == "campaign":
            cycle.append(("fig4_sweep_pool", "timed"))
    store: dict[str, list[dict[str, Any]]] = {}
    started = clock_ns()
    cycles = 0
    spent = last = 0.0
    # --seconds is the wall budget of this loop, child start-up included:
    # another cycle starts only while at least half of it fits. Untraced,
    # never fewer than REPEATS, however slow the host.
    while cycles < (1 if args.trace else REPEATS) or spent + last / 2 < args.seconds:
        cycles += 1
        for workload, kind in cycle:
            record = launch_child(workload, kind, args.seed, args.scale)
            store.setdefault(workload, []).append(record)
        last = (clock_ns() - started) / 1e9 - spent
        spent += last

    golden = load_golden(args.seed, args.scale).get(name)
    attempted, failures = check_operations(name, store[name], golden)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    if args.trace:
        measured = per_layer(name, store)
        metrics = {
            m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        values = end_to_end(store[name])
        if not values["slots_per_s"]:
            print("no repeat finished; nothing to report", file=sys.stderr)
            return 1
        metrics = {
            m["name"]: {
                "value": statistics.median(values[m["name"]]), "unit": m["unit"]
            }
            for m in spec["end_to_end"]
        }
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


# --------------------------------------------------------------------- #
# Suite mode: the whole ledger
# --------------------------------------------------------------------- #
def provenance() -> dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0],
    }


def run_suite(
    seed: int = DEFAULT_SEED,
    scale: int = 1,
    repeats: int = REPEATS,
    *,
    spec: dict[str, Any] | None = None,
    use_golden: bool = True,
    log: Any = sys.stderr,
) -> dict[str, Any]:
    """Measure every workload and return the result document."""
    spec = spec or load_spec()
    started = clock_ns()
    prov = provenance()
    warnings = []
    if prov["loadavg_start"] > prov["nproc"]:
        warnings.append(
            f"1-min load average {prov['loadavg_start']:.2f} exceeds nproc "
            f"{prov['nproc']}: the host is busy, timings are suspect"
        )
        print(f"\n*** WARNING: {warnings[-1]} ***\n", file=log)

    store: dict[str, list[dict[str, Any]]] = {name: [] for name in WORKLOADS}
    for repeat in range(repeats):
        for name in WORKLOADS:
            print(f"repeat {repeat + 1}/{repeats} {name}", file=log)
            store[name].append(launch_child(name, "timed", seed, scale))
    for name in WORKLOADS:
        for workload, kind in traced_plan(name):
            print(f"{kind} {name}", file=log)
            store[name].append(launch_child(workload, kind, seed, scale))

    golden = load_golden(seed, scale) if use_golden else {}
    versions = next(
        (r for rs in store.values() for r in rs if "numpy" in r), {}
    )
    prov["numpy"] = versions.get("numpy", "unknown")
    result_workloads = {}
    for name in WORKLOADS:
        attempted, failures = check_operations(name, store[name], golden.get(name))
        dists = {k: distribution(v) for k, v in end_to_end(store[name]).items() if v}
        dists["failed_share"] = distribution([len(failures) / attempted])
        measured = per_layer(name, store)
        unknown = set(measured) - {m["name"] for m in spec["per_layer"]}
        if unknown:
            raise SystemExit(f"{name}: undeclared per-layer metrics {sorted(unknown)}")
        timed = good(store[name], "timed")
        speeds = [r["host_speed"] for r in timed]
        result_workloads[name] = {
            "digest": workload_digest(timed[0]) if timed else None,
            "pins": {
                op["id"]: op["digest"] for op in (timed[0]["ops"] if timed else ())
                if "digest" in op
            },
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures,
            "end_to_end": dists,
            # What slots_per_s and setup_s were scaled by: the noise flag.
            "host_speed": distribution(speeds) if speeds else None,
            "per_layer": {
                m["name"]: measured.get(m["name"], 0.0) for m in spec["per_layer"]
            },
        }
    prov["loadavg_end"] = os.getloadavg()[0]
    prov["wall_s"] = (clock_ns() - started) / 1e9
    return {
        "schema": 1,
        "provenance": prov,
        "seed": seed,
        "scale": scale,
        "repeats": repeats,
        "warnings": warnings,
        "percentiles": (
            f"n={repeats} per workload: no tail percentile has ten samples "
            "beyond it, so none is reported; medians and quartiles only"
        ),
        "units": {
            m["name"]: m["unit"]
            for m in spec["end_to_end"] + [FAILED_SHARE] + spec["per_layer"]
        },
        "workloads": result_workloads,
        # This benchmark measures; it compares against no earlier commit.
        "claim": None,
    }


def print_result(result: dict[str, Any]) -> None:
    units = result["units"]
    for name, entry in result["workloads"].items():
        print(f"\n== {name}  digest {str(entry['digest'])[:16]}  "
              f"failed {entry['failed']}/{entry['attempted']}")
        for metric, dist in entry["end_to_end"].items():
            print(f"  {metric:<40} {dist['median']:>14.4f} {units[metric]:<12}"
                  f" q1 {dist['q1']:.4f} q3 {dist['q3']:.4f} n={dist['n']}")
        if entry["host_speed"]:
            speed = entry["host_speed"]
            print(f"  (host_speed {speed['median']:.3f}, "
                  f"{speed['min']:.3f} to {speed['max']:.3f})")
        for metric, value in entry["per_layer"].items():
            if value:
                print(f"  {metric:<40} {value:>14.4f} {units[metric]}")
        for line in entry["failures"]:
            print(f"  FAILED {line}")
    print(f"\n{result['percentiles']}")
    for warning in result["warnings"]:
        print(f"WARNING: {warning}")
    print('"claim": null')


def write_golden(result: dict[str, Any]) -> None:
    pins = {name: entry["pins"] for name, entry in result["workloads"].items()}
    if any("FAIL" in p.values() for p in pins.values()):
        raise SystemExit("not pinning: a Fig. 4 paper claim does not PASS")
    GOLDEN.write_text(json.dumps({
        "seed": result["seed"],
        "python": result["provenance"]["python"],
        "numpy": result["provenance"]["numpy"],
        "workloads": pins,
    }, indent=1) + "\n")


def exact_disagreements(first: dict[str, Any], second: dict[str, Any]) -> list[str]:
    """Digests and simulated-event counts that differ between two runs
    of one tree at one seed; they are deterministic, so none may."""
    problems = []
    for name, entry in first["workloads"].items():
        other = second["workloads"][name]
        exact = {"digest": (entry["digest"], other["digest"])}
        for key in EXACT_COUNTS:
            exact[key] = (entry["per_layer"][key], other["per_layer"][key])
        problems += [
            f"{name} {key}: {a} != {b} (must repeat exactly)"
            for key, (a, b) in exact.items() if a != b
        ]
    return problems


def selfcheck(first: dict[str, Any], second: dict[str, Any]) -> list[str]:
    """Every way two runs of the same tree disagree beyond the bounds."""
    return [
        f"{row['workload']} {row['metric']}: {row['delta_pct']:+.1f}% "
        f"against a bound of {100 * row['bound']:.0f}%"
        for row in compare.rows(first, second)
        if abs(row["delta_pct"]) > 100 * row["bound"]
    ] + exact_disagreements(first, second)


def run_ledger(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    if args.update_golden and (args.seed != DEFAULT_SEED or args.scale != 1):
        raise SystemExit("--update-golden pins the default seed at full size only")
    options = {"spec": spec, "use_golden": not args.update_golden}
    result = run_suite(args.seed, args.scale, **options)
    print_result(result)
    out = args.out or DEFAULT_OUT
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    failed = sum(entry["failed"] for entry in result["workloads"].values())
    if args.update_golden:
        if failed:
            raise SystemExit("not pinning: operations failed")
        write_golden(result)
        print(f"wrote {GOLDEN}", file=sys.stderr)
    if args.selfcheck:
        second = run_suite(args.seed, args.scale, **options)
        out.with_suffix(".second.json").write_text(
            json.dumps(second, indent=1) + "\n"
        )
        problems = selfcheck(result, second)
        for line in problems:
            print(f"SELFCHECK {line}")
        print(f"selfcheck: {len(problems)} disagreement(s)")
        failed += len(problems)
        failed += sum(entry["failed"] for entry in second["workloads"].values())
    return 1 if failed else 0


def build() -> None:
    """Byte-compile the simulator and the benchmark once, into the
    ``__pycache__`` directories beside the sources, as any first import
    on a user's machine would: no child pays compilation as import time
    (the sandbox sets PYTHONDONTWRITEBYTECODE, so imports alone never
    would cache). A redirected cache (``pycache_prefix``) is no way out:
    it also hides the interpreter's own cached stdlib and numpy."""
    for tree in (SRC, BENCH):
        if not compileall.compile_dir(str(tree), quiet=2):
            raise SystemExit(f"cannot byte-compile {tree}: setup_s would be inflated")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=1,
                        help="divide every workload's size (smoke runs use 50)")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no simulator source at {SRC}; nothing to measure", file=sys.stderr)
        return 2
    spec = load_spec()
    build()
    if args.workload:
        return run_contract(args, spec)
    return run_ledger(args, spec)


if __name__ == "__main__":
    sys.exit(main())
