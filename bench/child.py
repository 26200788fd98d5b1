"""One repeat of one workload, in a fresh process.

Launched only by ``run.launch_child`` as
``python bench/child.py '<json job>'``; prints one JSON record as the
last line of stdout. The job names the workload, the kind of repeat
(``timed`` / ``traced`` / ``points`` / ``ratios``), the seed, the scale
and the parent's clock reading just before the spawn, from which
``t_import`` (interpreter start -> ``repro`` imported) is taken:
``perf_counter_ns`` is CLOCK_MONOTONIC on Linux, shared by both
processes.

All timings are host wall-clock from ``repro.obs.profiler.clock_ns``;
every measured call sits in a ``calibrate.bracket``, which leaves the
call untouched and reports the host speed seen around it. Simulated
statistics are used only for the digests and as exact counts.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Any

import calibrate
import tracing
import workloads
from workloads import Run

#: Scratch space for campaign stores: inside the checkout, git-ignored.
WORK_DIR = Path(__file__).resolve().parent / ".work"


def summary_digest(summary: Any) -> str:
    """sha256 of the summary JSON without the wall-clock-bearing
    ``telemetry`` section."""
    payload = json.loads(summary.to_json())
    payload.pop("telemetry", None)
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def run_op(summary: Any, slots_asked: int, op_id: str = "run") -> dict[str, Any]:
    return {
        "id": op_id,
        "digest": summary_digest(summary),
        "unstable": bool(summary.unstable),
        "slots_run": summary.slots_run,
        "slots_asked": slots_asked,
    }


def figure_ops(figure: Any, claims: list[Any], slots_asked: int) -> list[dict[str, Any]]:
    """One operation per grid point, in grid order, then one per Fig. 4
    paper claim (its "digest" is the verdict)."""
    ops = []
    for algorithm in figure.algorithms:
        for load in figure.loads:
            op_id = f"{algorithm}@{load}"
            summary = figure.summaries.get((algorithm, load))
            if summary is None:
                failure = figure.failures.get((algorithm, load))
                detail = failure.describe() if failure else "point missing"
                ops.append({"id": op_id, "error": detail})
            else:
                ops.append(run_op(summary, slots_asked, op_id))
    for claim in claims:
        ops.append({
            "id": f"claim:{claim.claim}",
            "digest": "PASS" if claim.passed else "FAIL",
        })
    return ops


def peak_rss_kb() -> int:
    """Self plus the largest reaped pool worker (Linux reports KiB)."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )


# --------------------------------------------------------------------- #
# Single-run workloads
# --------------------------------------------------------------------- #
def timed_run(recipe: Run, seed: int, num_slots: int, clock: Any) -> dict[str, Any]:
    """The timed call: ``engine.run()`` with tracing off, untouched."""
    t0 = clock()
    engine = workloads.build_engine(recipe, seed, num_slots)
    t_build = clock() - t0
    summary, wall, host_speed = calibrate.bracket(clock, engine.run)
    return {
        "t_build_ns": t_build,
        "wall_ns": wall,
        "host_speed": host_speed,
        "slots_run": summary.slots_run,
        "ops": [run_op(summary, num_slots)],
    }


def traced_run(
    workload: str, recipe: Run, seed: int, num_slots: int, clock: Any
) -> dict[str, Any]:
    tracer = tracing.Tracer(clock)
    tracing.trace_kernel_backend(tracer)
    t0 = clock()
    engine = workloads.build_engine(recipe, seed, num_slots)
    t_build = clock() - t0
    counts = tracing.trace_engine(tracer, engine)
    summary, wall, host_speed = calibrate.bracket(clock, engine.run)
    # Spans stay in memory for the whole run and are written once it ended.
    WORK_DIR.mkdir(exist_ok=True)
    tracer.write(WORK_DIR / f"{workload}.spans.json")
    return {
        "t_build_ns": t_build,
        "wall_ns": wall,
        "host_speed": host_speed,
        "slots_run": summary.slots_run,
        "ops": [run_op(summary, num_slots)],
        "layers": tracing.layer_metrics(
            tracer.totals(), counts, engine, summary.slots_run, wall
        ),
    }


def mode_ratios(seed: int, num_slots: int, clock: Any) -> dict[str, Any]:
    """Wall of four engine modes over the plain run, same recipe, three
    interleaved runs each."""
    from repro.obs import Telemetry
    from repro.sim import run_simulation

    recipe = workloads.WORKLOADS[workloads.RATIO_WORKLOAD]
    # sanitize is always explicit: the engine otherwise consults the
    # environment.
    plain_kwargs = {
        "num_slots": num_slots, "seed": seed,
        "backend": "vectorized", "sanitize": False,
    }
    modes = {
        "plain": lambda: {},
        "obs.telemetry_ratio": lambda: {"telemetry": Telemetry(profile=True)},
        "sanitize.ratio": lambda: {"sanitize": True},
        "engine.chunk64_ratio": lambda: {"slot_chunk": 64},
        "kernel.object_ratio": lambda: {"backend": "object"},
    }
    walls: dict[str, list[int]] = {mode: [] for mode in modes}
    digests = set()
    started = clock()
    for _ in range(3):
        for mode, extra in modes.items():
            kwargs = plain_kwargs | extra()
            t0 = clock()
            summary = run_simulation(
                recipe.algorithm, recipe.num_ports, recipe.traffic(), **kwargs
            )
            walls[mode].append(clock() - t0)
            digests.add(summary_digest(summary))
    total = clock() - started
    plain = statistics.median(walls.pop("plain"))
    # Every mode is bit-identical to plain by the repo's own contract, and
    # so is the engine the timed and traced children build by hand.
    digests.add(summary_digest(workloads.build_engine(recipe, seed, num_slots).run()))
    op = (
        {"id": "modes", "digest": digests.pop()}
        if len(digests) == 1
        else {"id": "modes", "error": f"{len(digests)} digests across modes"}
    )
    return {
        "wall_ns": total,
        "ops": [op],
        "layers": {
            mode: statistics.median(ws) / plain for mode, ws in walls.items()
        },
    }


# --------------------------------------------------------------------- #
# Sweep workloads
# --------------------------------------------------------------------- #
def timed_sweep(seed: int, num_slots: int, clock: Any) -> dict[str, Any]:
    from repro.experiments.paper import check_expectations
    from repro.experiments.sweep import run_figure

    spec = workloads.sweep_spec()
    t0 = clock()
    spec.points(num_slots=num_slots, seed=seed)
    t_build = clock() - t0
    figure, wall, host_speed = calibrate.bracket(clock, lambda: run_figure(
        spec,
        num_slots=num_slots,
        seed=seed,
        workers=workloads.SWEEP_WORKERS,
        on_point_failure="record",
    ))
    return {
        "t_build_ns": t_build,
        "wall_ns": wall,
        "host_speed": host_speed,
        "slots_run": sum(s.slots_run for s in figure.all_summaries()),
        "ops": figure_ops(figure, check_expectations(figure), num_slots),
    }


def timed_campaign(
    seed: int, num_slots: int, clock: Any, traced: bool
) -> dict[str, Any]:
    from repro.campaign import CampaignStore, resume_campaign, run_durable_campaign

    figures = {"fig4": workloads.sweep_spec()}
    common = {
        "figures": figures,
        "workers": workloads.SWEEP_WORKERS,
        "install_signal_handlers": False,
    }
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        t0 = clock()
        CampaignStore.create(
            Path(tmp, "setup"), figure_ids=("fig4",), num_slots=num_slots, seed=seed
        )
        t_build = clock() - t0
        store = Path(tmp, "store")
        (result, _stats), wall, host_speed = calibrate.bracket(
            clock,
            lambda: run_durable_campaign(
                store, ("fig4",), num_slots=num_slots, seed=seed, **common
            ),
        )
        figure = result.figures["fig4"]
        record: dict[str, Any] = {
            "t_build_ns": t_build,
            "wall_ns": wall,
            "host_speed": host_speed,
            "slots_run": sum(s.slots_run for s in figure.all_summaries()),
            "ops": figure_ops(figure, result.expectations["fig4"], num_slots),
        }
        if traced:
            t0 = clock()
            _result, stats = resume_campaign(store, **common)
            resume_ns = clock() - t0
            if stats.points_executed:
                raise RuntimeError(
                    f"resume re-executed {stats.points_executed} points"
                )
            record["layers"] = {
                "campaign.run_s": wall / 1e9,
                "campaign.resume_s": resume_ns / 1e9,
                "campaign.journal_bytes_per_point": (
                    (store / "journal.jsonl").stat().st_size / stats.points_total
                ),
            }
    return record


def serial_points(seed: int, num_slots: int, clock: Any) -> dict[str, Any]:
    """Every grid point in-process through the public ``run_sweep_point``:
    what each part of the pooled wall costs on its own."""
    from repro.experiments.sweep import run_sweep_point

    spec = workloads.sweep_spec()
    ops = []
    seconds: dict[str, float] = {}
    slowest = 0.0

    def run_points() -> None:
        nonlocal slowest
        for point in spec.points(num_slots=num_slots, seed=seed):
            t0 = clock()
            summary = run_sweep_point(point)
            took = (clock() - t0) / 1e9
            seconds[point.algorithm] = seconds.get(point.algorithm, 0.0) + took
            slowest = max(slowest, took)
            ops.append(run_op(summary, num_slots, f"{point.algorithm}@{point.load}"))

    _, wall, host_speed = calibrate.bracket(clock, run_points)
    layers = {
        "experiments.points": float(len(ops)),
        "experiments.point_s_sum": sum(seconds.values()),
        "experiments.point_s_max": slowest,
    }
    for algorithm, total in seconds.items():
        layers[f"experiments.point_s.{algorithm}"] = total
    return {"wall_ns": wall, "host_speed": host_speed, "ops": ops, "layers": layers}


# --------------------------------------------------------------------- #
def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    leaked = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if leaked:
        print(f"bench child: {leaked} leaked into the environment", file=sys.stderr)
        return 3

    import numpy
    import repro  # noqa: F401 - the whole package, as repro-sim imports it
    from repro.obs.profiler import clock_ns

    t_import = clock_ns() - job["spawn_ns"]
    recipe = workloads.WORKLOADS[job["workload"]]
    seed, kind = job["seed"], job["kind"]
    num_slots = workloads.scaled_slots(recipe.num_slots, job["scale"])
    if kind == "ratios":
        record = mode_ratios(
            seed, workloads.scaled_slots(workloads.RATIO_SLOTS, job["scale"]), clock_ns
        )
    elif kind == "points":
        record = serial_points(seed, num_slots, clock_ns)
    elif isinstance(recipe, Run):
        if kind == "traced":
            record = traced_run(job["workload"], recipe, seed, num_slots, clock_ns)
        else:
            record = timed_run(recipe, seed, num_slots, clock_ns)
    elif recipe.durable:
        record = timed_campaign(seed, num_slots, clock_ns, kind == "traced")
    else:
        record = timed_sweep(seed, num_slots, clock_ns)
    record.update(
        workload=job["workload"],
        kind=kind,
        t_import_ns=t_import,
        rss_kb=peak_rss_kb(),
        python=platform.python_version(),
        numpy=numpy.__version__,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
