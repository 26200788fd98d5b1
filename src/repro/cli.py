"""Command-line interface.

Subcommands::

    repro-sim list                         # algorithms / figures / traffic
    repro-sim run --algorithm fifoms ...   # one simulation, print summary
    repro-sim profile --algorithm fifoms   # phase-level wall-clock profile
    repro-sim report RUNDIR [--html F]     # dashboard from a run directory
    repro-sim figure --id fig4 ...         # regenerate a paper figure
    repro-sim campaign run|resume|status DIR   # durable figure campaign
    repro-sim trace record|run ...         # persist / replay workloads
    repro-sim verify -a fifoms ...         # exhaustive small-state check
    repro-sim lint [--strict] [PATHS...]   # determinism/invariant linter

``run`` grows observability flags: ``--trace FILE.jsonl`` (one JSON record
per slot), ``--metrics FILE.json`` (metrics-registry dump), ``--progress``
(heartbeat with slots/sec and backlog) and ``--extended`` (delay
percentiles + fanout-splitting stats in the output) — plus ``--faults
SCENARIO`` for deterministic fault injection, ``--sanitize`` for the
runtime invariant sanitizer (see docs/sanitizers.md) and ``--out-dir
DIR`` to persist a full run directory that ``report`` renders. ``figure`` grows the sweep
robustness knobs ``--point-timeout``, ``--point-retries``, ``--keep-going``
and ``--faults``.

Also runnable as ``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.errors import ReproError
from repro.experiments import FIGURES, check_expectations, get_figure, run_figure
from repro.kernel.base import available_backends
from repro.report.ascii import format_table
from repro.report.export import write_csv, write_json
from repro.schedulers.registry import available_schedulers
from repro.sim.runner import TRAFFIC_MODELS, run_simulation
from repro.stats.summary import SimulationSummary

__all__ = ["main", "build_parser"]


def _add_traffic_args(p: argparse.ArgumentParser) -> None:
    """Traffic-model options shared by run / profile / trace record."""
    p.add_argument(
        "--traffic", "-t", default="bernoulli", choices=sorted(TRAFFIC_MODELS)
    )
    p.add_argument("--p", type=float, default=0.2, help="arrival probability")
    p.add_argument("--b", type=float, default=0.2, help="per-output probability")
    p.add_argument("--max-fanout", type=int, default=4, help="uniform max fanout")
    p.add_argument("--e-on", type=float, default=16.0, help="burst mean on period")
    p.add_argument("--e-off", type=float, default=48.0, help="burst mean off period")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description=(
            "Simulator for 'FIFO Based Multicast Scheduling Algorithm for "
            "VOQ Packet Switches' (Pan & Yang, ICPP 2004)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list algorithms, figures and traffic models")

    run_p = sub.add_parser("run", help="run one simulation")
    run_p.add_argument("--algorithm", "-a", required=True, help="scheduler name")
    run_p.add_argument("--ports", "-n", type=int, default=16, help="switch size N")
    _add_traffic_args(run_p)
    run_p.add_argument("--slots", type=int, default=100_000, help="simulated slots")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--json", action="store_true", help="print JSON, not a table")
    run_p.add_argument(
        "--trace", default=None, metavar="FILE.jsonl",
        help="write one JSON record per slot (arrivals, grants, rounds, backlog)",
    )
    run_p.add_argument(
        "--metrics", default=None, metavar="FILE.json",
        help="write the metrics-registry dump after the run",
    )
    run_p.add_argument(
        "--progress", action="store_true",
        help="heartbeat line to stderr every N slots (slots/sec, backlog)",
    )
    run_p.add_argument(
        "--progress-every", type=int, default=None, metavar="N",
        help="heartbeat period in slots (default: slots/10)",
    )
    run_p.add_argument(
        "--extended", action="store_true",
        help="collect extended stats (delay p50/p99, split ratio) and print them",
    )
    run_p.add_argument(
        "--faults", default=None, metavar="SCENARIO",
        help="inject a named fault scenario (see 'repro-sim list')",
    )
    run_p.add_argument(
        "--backend", default=None, choices=sorted(available_backends()),
        help="multicast VOQ kernel the scheduler is handed "
        "(default: the pairing's fast body, see 'repro-sim list'; "
        "bit-identical results; selects one for fifoms, fifoms-prio, "
        "greedy-mcast; every other algorithm has one body and ignores it)",
    )
    run_p.add_argument(
        "--slot-chunk", type=int, default=1, metavar="K",
        help="arrival vectors drawn ahead of the slots that consume them "
        "(bit-identical for every K, in every mode)",
    )
    run_p.add_argument(
        "--sanitize", action="store_true",
        help="run the runtime sanitizer tier (conservation, matching "
        "validity, FIFO order, kernel cross-checks; REPRO_SANITIZE=hard "
        "fails fast); exit 2 on any violation",
    )
    run_p.add_argument(
        "--out-dir", default=None, metavar="DIR",
        help="write a full run directory (summary.json, metrics.json, "
        "profile.json, trace.jsonl.gz) for 'repro-sim report'",
    )

    prof_p = sub.add_parser(
        "profile", help="run once with phase profiling and print the breakdown"
    )
    prof_p.add_argument("--algorithm", "-a", required=True, help="scheduler name")
    prof_p.add_argument("--ports", "-n", type=int, default=16, help="switch size N")
    _add_traffic_args(prof_p)
    prof_p.add_argument("--slots", type=int, default=20_000, help="simulated slots")
    prof_p.add_argument("--seed", type=int, default=0)
    prof_p.add_argument(
        "--backend", default=None, choices=sorted(available_backends()),
        help="kernel backend to profile (default: the pairing's fast body)",
    )

    fig_p = sub.add_parser("figure", help="regenerate a paper figure / ablation")
    fig_p.add_argument("--id", required=True, help="figure id, e.g. fig4")
    fig_p.add_argument("--slots", type=int, default=100_000, help="slots per point")
    fig_p.add_argument("--seed", type=int, default=0)
    fig_p.add_argument(
        "--loads", type=float, nargs="*", default=None, help="override load points"
    )
    fig_p.add_argument("--workers", type=int, default=None, help="process-pool size")
    fig_p.add_argument(
        "--faults", default=None, metavar="SCENARIO",
        help="inject a named fault scenario into every sweep point",
    )
    fig_p.add_argument(
        "--point-timeout", type=float, default=None, metavar="SECONDS",
        help="per-point wall-clock bound (process-pool mode only)",
    )
    fig_p.add_argument(
        "--point-retries", type=int, default=0, metavar="N",
        help="same-seed retry rounds for failed points",
    )
    fig_p.add_argument(
        "--keep-going", action="store_true",
        help="record failed points instead of aborting the sweep",
    )
    fig_p.add_argument("--charts", action="store_true", help="add ASCII charts")
    fig_p.add_argument("--csv", default=None, help="also write results CSV here")
    fig_p.add_argument("--json", dest="json_path", default=None, help="write JSON here")

    tr_p = sub.add_parser("trace", help="record or replay arrival traces")
    tr_sub = tr_p.add_subparsers(dest="trace_command", required=True)
    rec_p = tr_sub.add_parser("record", help="record a stochastic model to a file")
    rec_p.add_argument("--out", required=True, help="trace file to write (JSONL)")
    rec_p.add_argument("--ports", "-n", type=int, default=16)
    _add_traffic_args(rec_p)
    rec_p.add_argument("--slots", type=int, default=10_000)
    rec_p.add_argument("--seed", type=int, default=0)
    run_t = tr_sub.add_parser("run", help="run a simulation from a trace file")
    run_t.add_argument("--file", required=True, help="trace file (JSONL)")
    run_t.add_argument("--algorithm", "-a", required=True)
    run_t.add_argument("--seed", type=int, default=0)

    # Durable campaign runner (checkpointed store + resumable supervisor);
    # a bare `campaign` is a usage error (exit 2).
    camp_p = sub.add_parser(
        "campaign",
        help="regenerate several figures into one durable, checkpointed "
        "store with a Markdown report (run / resume / status)",
    )
    camp_sub = camp_p.add_subparsers(
        dest="campaign_command", metavar="{run,resume,status}", required=True
    )

    def _add_campaign_exec_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=None,
                       help="process-pool size (default: serial heuristics)")
        p.add_argument("--point-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-point wall-clock watchdog (pool mode)")
        p.add_argument("--max-attempts", type=int, default=3, metavar="N",
                       help="attempts per point before journaling a failure")
        p.add_argument("--backoff-base", type=float, default=0.5,
                       metavar="SECONDS", help="retry backoff base delay")
        p.add_argument("--backoff-cap", type=float, default=30.0,
                       metavar="SECONDS", help="retry backoff ceiling")
        p.add_argument("--max-points", type=int, default=None, metavar="N",
                       help="stop (resumably, exit 3) after N newly "
                       "executed points — chaos drills and smoke runs")
        p.add_argument("--metrics", default=None, metavar="FILE.jsonl",
                       help="stream campaign.* progress snapshots as JSONL")

    crun_p = camp_sub.add_parser(
        "run", help="run a durable campaign (idempotent: re-running a "
        "matching store resumes it)",
    )
    crun_p.add_argument("store_dir", help="campaign store directory")
    crun_p.add_argument(
        "--figures", nargs="*", default=None,
        help="figure ids (default: the five paper figures)",
    )
    crun_p.add_argument("--slots", type=int, default=30_000)
    crun_p.add_argument("--seed", type=int, default=2004)
    _add_campaign_exec_args(crun_p)

    cres_p = camp_sub.add_parser(
        "resume", help="resume an interrupted campaign from its journal "
        "(figures/slots/seed come from the stored manifest)",
    )
    cres_p.add_argument("store_dir", help="campaign store directory")
    _add_campaign_exec_args(cres_p)

    cstat_p = camp_sub.add_parser(
        "status", help="inspect a campaign store without executing anything"
    )
    cstat_p.add_argument("store_dir", help="campaign store directory")
    cstat_p.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )

    rep_p = sub.add_parser(
        "report", help="render a run directory as an ASCII dashboard"
    )
    rep_p.add_argument(
        "run_dir", help="directory written by 'repro-sim run --out-dir'"
    )
    rep_p.add_argument(
        "--html", default=None, metavar="FILE",
        help="also write a self-contained static HTML page",
    )

    ver_p = sub.add_parser(
        "verify", help="exhaustively verify an algorithm on a tiny domain"
    )
    ver_p.add_argument("--algorithm", "-a", required=True)
    ver_p.add_argument("--ports", "-n", type=int, default=2)
    ver_p.add_argument("--horizon", type=int, default=2)

    lint_p = sub.add_parser(
        "lint", help="run the determinism/invariant static analyzer"
    )
    lint_p.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: the repro source tree)",
    )
    lint_p.add_argument(
        "--paths", dest="extra_paths", nargs="+", default=[], metavar="PATH",
        help="additional trees to lint (opt in benchmarks/, examples/, ...)",
    )
    lint_p.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    lint_p.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on warnings too, not only errors",
    )
    lint_p.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog (id, severity, rationale) and exit",
    )
    lint_p.add_argument(
        "--sarif", metavar="FILE", default=None,
        help="also write the findings as SARIF 2.1.0 to FILE ('-' = stdout)",
    )
    lint_p.add_argument(
        "--cache", metavar="DIR", default=None,
        help="content-hash analysis cache directory (incremental re-runs)",
    )
    lint_p.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="subtract known findings listed in this baseline file",
    )
    lint_p.add_argument(
        "--write-baseline", metavar="FILE", default=None,
        help="write the run's findings as a fresh baseline file and exit 0",
    )
    return parser


def _traffic_spec(args: argparse.Namespace) -> dict[str, object]:
    if args.traffic == "bernoulli":
        return {"model": "bernoulli", "p": args.p, "b": args.b}
    if args.traffic == "uniform":
        return {"model": "uniform", "p": args.p, "max_fanout": args.max_fanout}
    if args.traffic == "burst":
        return {"model": "burst", "e_off": args.e_off, "e_on": args.e_on, "b": args.b}
    if args.traffic == "mixed":
        return {"model": "mixed", "p": args.p, "unicast_fraction": 0.5, "b": args.b}
    return {"model": "hotspot", "p": args.p, "max_fanout": args.max_fanout}


def _print_summary(summary: SimulationSummary) -> None:
    rows = [
        ("algorithm", summary.algorithm),
        ("ports", summary.num_ports),
        ("slots run", summary.slots_run),
        ("offered load", round(summary.offered_load, 4)),
        ("carried load", round(summary.carried_load, 4)),
        ("avg input delay", round(summary.average_input_delay, 3)),
        ("avg output delay", round(summary.average_output_delay, 3)),
        ("avg queue size", round(summary.average_queue_size, 4)),
        ("max queue size", summary.max_queue_size),
        ("avg rounds", round(summary.average_rounds, 3)),
        ("unstable", summary.unstable),
    ]
    # Loss / fault-injection rows only when something actually happened.
    if summary.cells_dropped or summary.packets_dropped:
        rows.append(("cells dropped", summary.cells_dropped))
        rows.append(("packets dropped", summary.packets_dropped))
    if summary.grants_lost:
        rows.append(("grants lost", summary.grants_lost))
    if summary.faults is not None:
        rows.append(("fault outage slots", summary.faults.get("outage_slots")))
        rows.append(("fault degraded slots", summary.faults.get("degraded_slots")))
        rows.append(("fault recovered", summary.faults.get("recovered")))
    # Extended stats (delay percentiles, fanout splitting) when collected.
    for key in sorted(summary.extra):
        rows.append((key, round(summary.extra[key], 3)))
    print(format_table(("metric", "value"), rows))


def _run_command(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import ProgressReporter, SlotTracer, Telemetry

    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        tracer = SlotTracer(args.trace)
    elif out_dir is not None:
        tracer = SlotTracer(out_dir / "trace.jsonl.gz")
    else:
        tracer = None
    wants_telemetry = bool(
        args.trace or args.metrics or args.progress or out_dir
    )
    telemetry = None
    if wants_telemetry:
        progress = None
        if args.progress:
            every = args.progress_every or max(1, args.slots // 10)
            progress = ProgressReporter(
                every=every, total=args.slots, label=args.algorithm
            )
        telemetry = Telemetry(
            tracer=tracer, progress=progress, profile=out_dir is not None
        )
    sanitizer = None
    if args.sanitize:
        from repro.sanitize import SanitizerSuite, sanitize_mode

        sanitizer = SanitizerSuite(hard_fail=(sanitize_mode() == "hard"))
    try:
        summary = run_simulation(
            args.algorithm,
            args.ports,
            _traffic_spec(args),
            num_slots=args.slots,
            slot_chunk=args.slot_chunk,
            seed=args.seed,
            extended_stats=args.extended,
            telemetry=telemetry,
            faults=args.faults,
            backend=args.backend,
            sanitize=sanitizer,
        )
    finally:
        if tracer is not None:
            tracer.close()
        if sanitizer is not None and out_dir is not None:
            import json as _json

            from repro.utils.fileio import atomic_write_text

            atomic_write_text(
                out_dir / "sanitizer.json",
                _json.dumps(sanitizer.report(), indent=2) + "\n",
            )
    if sanitizer is not None:
        print(
            f"sanitizer: {sanitizer.slots_checked} slots checked, "
            f"{sanitizer.deep_passes} deep passes, "
            f"{len(sanitizer.violations)} violation(s)",
            file=sys.stderr,
        )
    if args.metrics:
        telemetry.registry.write_json(args.metrics)
        print(f"wrote {args.metrics}", file=sys.stderr)
    if args.trace:
        print(
            f"wrote {args.trace}: {tracer.records_written} slot records",
            file=sys.stderr,
        )
    if out_dir is not None:
        from repro.report.dashboard import write_run_artifacts

        write_run_artifacts(out_dir, summary, telemetry)
        print(
            f"wrote run directory {out_dir} "
            f"({tracer.records_written} trace records)",
            file=sys.stderr,
        )
    if args.json:
        print(summary.to_json())
    else:
        _print_summary(summary)
    return 0


def _profile_command(args: argparse.Namespace) -> int:
    from repro.obs import Telemetry
    from repro.report.ascii import format_phase_table

    telemetry = Telemetry(profile=True)
    summary = run_simulation(
        args.algorithm,
        args.ports,
        _traffic_spec(args),
        num_slots=args.slots,
        seed=args.seed,
        telemetry=telemetry,
        backend=args.backend,
    )
    report = telemetry.profiler.report(summary.slots_run)
    print(
        f"{args.algorithm}: N={args.ports}, {summary.slots_run} slots, "
        f"{report.get('slots_per_sec', 0):,.0f} slots/s (profiled phases)"
    )
    print(format_phase_table(report))
    return 0


def _report_command(args: argparse.Namespace) -> int:
    from repro.report.dashboard import (
        load_run_dir,
        render_ascii_report,
        render_html_report,
    )
    from repro.utils.fileio import atomic_write_text

    try:
        arts = load_run_dir(args.run_dir)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_ascii_report(arts), end="")
    if args.html:
        atomic_write_text(args.html, render_html_report(arts))
        print(f"wrote {args.html}", file=sys.stderr)
    return 0


def _lint_command(args: argparse.Namespace) -> int:
    from repro.lint import (
        Baseline,
        default_rules,
        format_json,
        format_rule_catalog,
        format_sarif,
        format_text,
        run_lint,
        write_baseline,
    )

    rules = default_rules()
    if args.list_rules:
        print(format_rule_catalog(rules))
        return 0
    baseline = Baseline.load(args.baseline) if args.baseline else None
    paths = list(args.paths or []) + list(args.extra_paths)
    try:
        report = run_lint(
            paths or None,
            rules=rules,
            cache_dir=args.cache,
            baseline=baseline,
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        count = write_baseline(args.write_baseline, report.findings)
        print(f"wrote {args.write_baseline}: {count} baseline entr"
              f"{'y' if count == 1 else 'ies'}")
        return 0
    if args.sarif:
        sarif = format_sarif(report, rules)
        if args.sarif == "-":
            print(sarif)
        else:
            from repro.utils.fileio import atomic_write_text

            atomic_write_text(args.sarif, sarif + "\n")
            print(f"wrote {args.sarif}", file=sys.stderr)
    # With the SARIF payload on stdout ('-'), keep it parseable: the
    # human report drops to stderr.
    print(
        format_json(report) if args.json else format_text(report),
        file=sys.stderr if args.sarif == "-" else sys.stdout,
    )
    return report.exit_code(strict=args.strict)


def _campaign_command(args: argparse.Namespace) -> int:
    """``campaign run/resume/status``.

    Exit codes: 0 complete, 1 complete-with-failed-points, 2 usage/store
    errors (the generic ``ReproError`` path in :func:`main`), 3
    interrupted-but-resumable (SIGINT/SIGTERM or ``--max-points``).
    """
    import json as _json

    from repro.campaign import (
        campaign_status,
        resume_campaign,
        run_durable_campaign,
    )
    from repro.errors import CampaignInterrupted
    from repro.experiments.campaign import PAPER_FIGURES

    cmd = args.campaign_command
    if cmd == "status":
        status = campaign_status(args.store_dir)
        if args.json:
            print(_json.dumps(status, indent=2))
        else:
            print(f"campaign {status['directory']}: {status['state']}")
            print(
                f"  figures: {', '.join(status['figure_ids'])} | "
                f"slots {status['num_slots']} | seed {status['seed']}"
            )
            if not status["signature_current"]:
                print(
                    "  note: code changed since this store was written — "
                    "every point recomputes on resume"
                )
            figs = status["figures"]
            rows = [
                (
                    fid,
                    figs[fid]["done"],
                    figs[fid]["failed"],
                    figs[fid]["total"],
                    figs[fid]["pending"],
                )
                for fid in status["figure_ids"]
            ]
            print(format_table(
                ("figure", "done", "failed", "total", "pending"), rows
            ))
        return 0

    sink = None
    if args.metrics:
        from repro.obs.sinks import JsonlSink

        sink = JsonlSink(args.metrics)
    try:
        if cmd == "run":
            result, stats = run_durable_campaign(
                args.store_dir,
                tuple(args.figures) if args.figures else PAPER_FIGURES,
                num_slots=args.slots,
                seed=args.seed,
                workers=args.workers,
                point_timeout=args.point_timeout,
                max_attempts=args.max_attempts,
                backoff_base=args.backoff_base,
                backoff_cap=args.backoff_cap,
                metric_sink=sink,
                max_points=args.max_points,
            )
        else:  # resume
            result, stats = resume_campaign(
                args.store_dir,
                workers=args.workers,
                point_timeout=args.point_timeout,
                max_attempts=args.max_attempts,
                backoff_base=args.backoff_base,
                backoff_cap=args.backoff_cap,
                metric_sink=sink,
                max_points=args.max_points,
            )
    except CampaignInterrupted as exc:
        print(f"campaign interrupted: {exc}", file=sys.stderr)
        return 3
    finally:
        if sink is not None:
            sink.close()
    failed = stats.points_failed
    print(
        f"campaign {args.store_dir}: {result.claims_passed}/"
        f"{result.claims_total} paper claims PASS "
        f"({stats.points_executed} executed, {stats.points_skipped} "
        f"replayed from journal, {failed} failed)"
    )
    return 1 if failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            from repro.faults import FAULT_SCENARIOS
            from repro.kernel.equivalence import single_bodied_pairings
            from repro.schedulers.registry import make_switch

            single = single_bodied_pairings()
            print("algorithms (and the body built when --backend is not given):")
            for name in available_schedulers():
                if name in single:
                    body = "(one body)"
                else:
                    body = make_switch(name, 4).backend
                print(f"  {name}  {body}")
            print("traffic models: " + ", ".join(sorted(TRAFFIC_MODELS)))
            print("figures:")
            for fid in sorted(FIGURES):
                print(f"  {fid}: {FIGURES[fid].title}")
            print("fault scenarios:")
            for name in sorted(FAULT_SCENARIOS):
                print(f"  {name}: {FAULT_SCENARIOS[name][0]}")
            return 0
        if args.command == "run":
            return _run_command(args)
        if args.command == "profile":
            return _profile_command(args)
        if args.command == "report":
            return _report_command(args)
        if args.command == "trace":
            return _trace_command(args)
        if args.command == "lint":
            return _lint_command(args)
        if args.command == "campaign":
            return _campaign_command(args)
        if args.command == "verify":
            from repro.verify.exhaustive import exhaustive_verify

            report = exhaustive_verify(
                args.algorithm, num_ports=args.ports, horizon=args.horizon
            )
            print(report)
            for v in report.violations[:5]:
                print(f"  {v.kind}: {v.detail} on trace {v.trace}")
            return 0 if report.ok else 1
        # figure
        spec = get_figure(args.id)
        result = run_figure(
            spec,
            num_slots=args.slots,
            seed=args.seed,
            loads=args.loads,
            workers=args.workers,
            fault_scenario=args.faults,
            point_timeout=args.point_timeout,
            point_retries=args.point_retries,
            on_point_failure="record" if args.keep_going else "raise",
        )
        print(result.to_text(charts=args.charts))
        for exp in check_expectations(result):
            print(exp)
        if args.csv:
            write_csv(args.csv, result.all_summaries())
            print(f"wrote {args.csv}")
        if args.json_path:
            write_json(args.json_path, result.all_summaries())
            print(f"wrote {args.json_path}")
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _trace_command(args: argparse.Namespace) -> int:
    from repro.sim.engine import SimulationEngine
    from repro.sim.config import SimulationConfig
    from repro.schedulers.registry import make_switch
    from repro.sim.runner import build_traffic
    from repro.traffic.trace import record_trace
    from repro.traffic.traceio import load_trace_traffic, save_trace

    if args.trace_command == "record":
        model = build_traffic(_traffic_spec(args), args.ports, rng=args.seed)
        packets = record_trace(model, args.slots)
        path = save_trace(args.out, args.ports, packets)
        print(
            f"wrote {path}: {len(packets)} packets over {args.slots} slots "
            f"({args.ports} ports)"
        )
        return 0
    # trace run
    traffic = load_trace_traffic(args.file)
    horizon = traffic.horizon
    switch = make_switch(args.algorithm, traffic.num_ports, rng=args.seed)
    cfg = SimulationConfig(
        num_slots=max(horizon * 2, horizon + 100),
        warmup_fraction=0.0,
        stability_window=0,
    )
    summary = SimulationEngine(
        switch, traffic, cfg, seed=args.seed, algorithm_name=args.algorithm
    ).run()
    _print_summary(summary)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
