"""The paper's Section V claims, and the ablations', as one table.

The reproduction target is *shape*, not absolute numbers (DESIGN.md §3):
who wins, by roughly what factor, where the saturation points fall. Each
row of :data:`CLAIMS` is ``(figure id, claim, predicate)``: the predicate
reads a :class:`~repro.experiments.sweep.FigureResult` and returns
``(passed, detail)``. ``repro-sim figure``, ``repro-sim campaign`` and
``examples/reproduce_figures.py`` print these as PASS/FAIL lines next to
the raw series.

Every row of a figure is always scored, and a row FAILs under its own
name when a point it reads is missing (lost from a ``--keep-going``
sweep, say) or when its algorithms share no stable load; it never
vanishes from the report.

Thresholds are deliberately loose (factor-of-two style): short runs are
noisy, and the claims themselves are qualitative.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from repro.experiments.sweep import FigureResult

__all__ = ["CLAIMS", "ExpectationResult", "check_expectations"]

Verdict = tuple[bool, str]
Predicate = Callable[[FigureResult], Verdict]
Judge = Callable[[FigureResult, list[float]], Verdict]

#: ``upto`` for a claim that holds at every swept load.
EVERY_LOAD = math.inf


@dataclass(frozen=True, slots=True)
class ExpectationResult:
    """Outcome of one paper-claim check."""

    figure_id: str
    claim: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.figure_id}: {self.claim} ({self.detail})"


# --------------------------------------------------------------------- #
# Predicate builders
# --------------------------------------------------------------------- #
def _stable_loads(
    result: FigureResult, algorithms: tuple[str, ...], upto: float, lo: float = 0.0
) -> list[float]:
    """Loads in [lo, upto] at which all listed algorithms completed and
    stayed stable (a missing point counts as not stable)."""
    return [
        load
        for load in result.loads
        if lo <= load <= upto
        and all(
            (s := result.summaries.get((a, load))) is not None and not s.unstable
            for a in algorithms
        )
    ]


def _missing(
    result: FigureResult, algorithms: tuple[str, ...], lo: float, upto: float
) -> str:
    """Name the points of ``algorithms`` at loads in [lo, upto] that did
    not complete ("" when all did)."""
    window = [l for l in result.loads if lo <= l <= upto]
    gaps = {a: [l for l in window if (a, l) not in result.summaries] for a in algorithms}
    return "; ".join(f"no {a} points at loads {ls}" for a, ls in gaps.items() if ls)


def _vals(result: FigureResult, alg: str, metric: str, loads: list[float]) -> list[float]:
    return [result.summaries[(alg, load)].metric(metric) for load in loads]


def _at_stable(
    algorithms: tuple[str, ...],
    upto: float,
    judge: Judge,
    *,
    lo: float = 0.0,
    every: bool = False,
) -> Predicate:
    """Judge the loads in [lo, upto] where every listed algorithm (and,
    with ``every``, every swept one) completed and stayed stable; FAIL
    when there are none, or when one of their points in [lo, upto] is
    missing."""

    def predicate(r: FigureResult) -> Verdict:
        algs = (*algorithms, *r.algorithms) if every else algorithms
        loads = _stable_loads(r, algs, upto, lo)
        if not loads:
            return False, "no common stable loads"
        if gap := _missing(r, algs, lo, upto):
            return False, gap
        return judge(r, loads)

    return predicate


def ratio_at_most(
    num_alg: str, den_alg: str, metric: str, max_ratio: float, upto: float
) -> Predicate:
    """``num_alg``'s metric is within ``max_ratio`` of ``den_alg``'s at
    every common stable load."""

    def judge(r: FigureResult, loads: list[float]) -> Verdict:
        ratios = [
            a / b if b > 0 else math.inf
            for a, b in zip(
                _vals(r, num_alg, metric, loads), _vals(r, den_alg, metric, loads)
            )
        ]
        worst = max(ratios)
        return worst <= max_ratio, (
            f"max {num_alg}/{den_alg} {metric} ratio {worst:.2f} over loads {loads}"
        )

    return _at_stable((num_alg, den_alg), upto, judge)


def is_smallest(
    alg: str,
    metric: str,
    upto: float,
    *,
    slack: float = 1.05,
    lo: float = 0.45,
    among: tuple[str, ...] | None = None,
) -> Predicate:
    """``alg`` has the (near-)smallest metric among ``among`` (default:
    all swept algorithms) at every common stable load in [lo, upto].

    Light loads are excluded by default: below ~0.45 every algorithm's
    queues hold fractions of a cell and the ranking is sampling noise,
    not a property of the scheduler.
    """

    def judge(r: FigureResult, loads: list[float]) -> Verdict:
        contenders = among if among is not None else r.algorithms
        failures = []
        for load in loads:
            mine = r.summaries[(alg, load)].metric(metric)
            best = min(r.summaries[(a, load)].metric(metric) for a in contenders)
            if mine > best * slack + 1e-9:
                failures.append((load, mine, best))
        return not failures, (
            f"checked loads {loads}" if not failures else f"beaten at {failures}"
        )

    return _at_stable((alg, *(among or ())), upto, judge, lo=lo, every=among is None)


def total_at_most(
    alg: str,
    rivals: tuple[str, ...] | None,
    metric: str,
    factor: float,
    upto: float,
    *,
    lo: float = 0.0,
) -> Predicate:
    """``alg``'s metric summed over the common stable loads is within
    ``factor`` of the smallest rival sum (default rivals: every other
    swept algorithm). Bursty runs are noisy point by point, so the
    aggregate is what these claims rest on."""

    def judge(r: FigureResult, loads: list[float]) -> Verdict:
        others = rivals or tuple(a for a in r.algorithms if a != alg)
        totals = {a: sum(_vals(r, a, metric, loads)) for a in (alg, *others)}
        best = min((totals[a] for a in others), default=math.inf)
        return totals[alg] <= best * factor + 1e-9, (
            f"sum of {metric} over loads {loads}: "
            + ", ".join(f"{a}={v:.2f}" for a, v in sorted(totals.items()))
        )

    return _at_stable((alg, *(rivals or ())), upto, judge, lo=lo, every=rivals is None)


def saturates_between(alg: str, lo: float, hi: float) -> Predicate:
    """``alg`` first goes unstable at a swept load in [lo, hi], and no
    point of it below that load is missing."""

    def predicate(r: FigureResult) -> Verdict:
        sat = r.saturation_load(alg)
        if gap := _missing(r, (alg,), 0.0, hi if sat is None else sat):
            return False, gap
        ok = sat is not None and lo <= sat <= hi
        return ok, f"{alg} saturation at {sat} (expected in [{lo}, {hi}])"

    return predicate


def stays_stable(alg: str, upto: float) -> Predicate:
    """``alg`` completed and stayed stable at every swept load <= upto."""

    def predicate(r: FigureResult) -> Verdict:
        if gap := _missing(r, (alg,), 0.0, upto):
            return False, gap
        sat = r.saturation_load(alg)
        ok = sat is None or sat > upto
        return ok, f"{alg} saturation at {sat} (expected > {upto})"

    return predicate


def max_rounds_at_most(algorithms: tuple[str, ...], limit: int | None = None) -> Predicate:
    """No slot of any completed point of ``algorithms`` took more than
    ``limit`` rounds (default N, the §IV.C worst case). Unstable points
    count too: the bound is per slot, not per steady state."""

    def predicate(r: FigureResult) -> Verdict:
        if gap := _missing(r, algorithms, 0.0, EVERY_LOAD):
            return False, gap
        cap = r.spec.num_ports if limit is None else limit
        worst = {
            a: max(r.summaries[(a, load)].max_rounds for load in r.loads)
            for a in algorithms
        }
        rounds = ", ".join(f"{a}={v}" for a, v in worst.items())
        ok = all(v <= cap for v in worst.values())
        return ok, f"max rounds {rounds} (limit {cap})"

    return predicate


# --------------------------------------------------------------------- #
# Judges for the claims no builder states
# --------------------------------------------------------------------- #
def _fig4_islip_worse(r: FigureResult) -> Verdict:
    if gap := _missing(r, ("islip", "fifoms"), 0.0, 0.7):
        return False, gap
    loads = _stable_loads(r, ("islip", "fifoms"), 0.7)
    if not loads:
        # iSLIP already dead where FIFOMS lives: even stronger.
        sat = r.saturation_load("islip")
        return sat is not None and sat <= 0.7, f"islip saturation at {sat}"
    f = _vals(r, "fifoms", "output_delay", loads)
    i = _vals(r, "islip", "output_delay", loads)
    ratios = ", ".join(f"{iv / fv:.2f}" for fv, iv in zip(f, i))
    ok = all(iv >= 1.5 * fv for fv, iv in zip(f, i))
    return ok, f"islip/fifoms delay ratios {ratios}"


def _fig5_rounds(r: FigureResult, loads: list[float]) -> tuple[list[float], list[float]]:
    return _vals(r, "fifoms", "rounds", loads), _vals(r, "islip", "rounds", loads)


def _fig5_small(r: FigureResult, loads: list[float]) -> Verdict:
    f, i = _fig5_rounds(r, loads)
    return max(f + i) <= 6.0, f"max rounds fifoms={max(f):.2f} islip={max(i):.2f}"


def _fig5_alike(r: FigureResult, loads: list[float]) -> Verdict:
    gaps = [abs(a - b) for a, b in zip(*_fig5_rounds(r, loads))]
    return max(gaps) <= 1.5, f"max gap {max(gaps):.2f} rounds"


def _fig5_flat(r: FigureResult, loads: list[float]) -> Verdict:
    f, i = _fig5_rounds(r, loads)
    ok = max(f) - min(f) <= 2.0 and max(i) - min(i) <= 2.0
    return ok, (
        f"fifoms range {min(f):.2f}-{max(f):.2f}, "
        f"islip range {min(i):.2f}-{max(i):.2f}"
    )


def _fig8_islip_collapses(r: FigureResult) -> Verdict:
    # Either iSLIP goes unstable very early or its delay explodes.
    if gap := _missing(r, ("islip", "fifoms"), 0.0, 0.5):
        return False, gap
    sat = r.saturation_load("islip")
    dead_early = sat is not None and sat <= 0.5
    if not dead_early:
        ratios = [
            r.summaries[("islip", load)].metric("output_delay")
            / max(r.summaries[("fifoms", load)].metric("output_delay"), 1e-9)
            for load in _stable_loads(r, ("islip", "fifoms"), 0.5)
        ]
        dead_early = bool(ratios) and max(ratios) >= 4.0
    return dead_early, f"islip saturation at {sat}"


def _tiebreak_spread(r: FigureResult) -> Verdict:
    # Compared wherever two or more policies are stable, even when the
    # third has saturated there.
    if gap := _missing(r, r.algorithms, 0.0, EVERY_LOAD):
        return False, gap
    checked, worst = [], []
    for load in r.loads:
        points = [r.summaries[(a, load)] for a in r.algorithms]
        vals = [s.metric("output_delay") for s in points if not s.unstable]
        if len(vals) < 2:
            continue
        checked.append(load)
        if max(vals) > min(vals) * 1.5 + 0.5:
            worst.append((load, round(min(vals), 3), round(max(vals), 3)))
    if not checked:
        return False, "no load where two policies are stable"
    return not worst, f"checked loads {checked}" if not worst else f"diverged at {worst}"


def _cicq_queues_not_smaller(r: FigureResult, loads: list[float]) -> Verdict:
    # Judged at every load >= 0.5 where CICQ is stable: an unstable or
    # missing FIFOMS point there FAILs rather than being skipped.
    if gap := _missing(r, ("fifoms",), 0.5, EVERY_LOAD):
        return False, gap
    fif, cicq = (_vals(r, a, "avg_queue", loads) for a in ("fifoms", "cicq"))
    unstable = [r.summaries[("fifoms", l)].unstable for l in loads]
    beaten = [l for l, u, f, c in zip(loads, unstable, fif, cicq) if u or f > c]
    return not beaten, (
        f"fifoms unstable or larger at {beaten}" if beaten else f"checked loads {loads}"
    )


# --------------------------------------------------------------------- #
# The table
# --------------------------------------------------------------------- #
CLAIMS: tuple[tuple[str, str, Predicate], ...] = (
    ("fig4", "FIFOMS output delay closely matches OQFIFO",
     ratio_at_most("fifoms", "oqfifo", "output_delay", 2.0, 0.8)),
    ("fig4", "FIFOMS input delay closely matches OQFIFO",
     ratio_at_most("fifoms", "oqfifo", "input_delay", 2.0, 0.8)),
    # 10% slack: at mid loads TATRA's occupancy is a statistical tie
    # with FIFOMS (e.g. 0.176 vs 0.170 cells at load 0.5 over 30k
    # slots); the decisive FIFOMS gap opens from ~0.7 as TATRA's HOL
    # blocking bites.
    ("fig4", "FIFOMS has the smallest average queue size",
     is_smallest("fifoms", "avg_queue", 0.8, slack=1.1)),
    ("fig4", "FIFOMS has the smallest maximum queue size",
     is_smallest("fifoms", "max_queue", 0.7, slack=1.34)),
    ("fig4", "TATRA becomes unstable beyond ~0.8 load",
     saturates_between("tatra", 0.7, 0.95)),
    ("fig4", "iSLIP delay far exceeds FIFOMS (multicast split into copies)",
     _fig4_islip_worse),
    ("fig4", "FIFOMS stays stable to high load", stays_stable("fifoms", 0.9)),
    ("fig5", "convergence rounds are small (<< N = 16)",
     _at_stable(("fifoms", "islip"), 0.85, _fig5_small)),
    ("fig5", "FIFOMS and iSLIP need roughly the same number of rounds",
     _at_stable(("fifoms", "islip"), 0.85, _fig5_alike)),
    ("fig5", "rounds are not sensitive to the traffic load",
     _at_stable(("fifoms", "islip"), 0.85, _fig5_flat)),
    ("fig5", "no slot needs more than N rounds (§IV.C)",
     max_rounds_at_most(("fifoms", "islip"))),
    ("fig6", "FIFOMS matches iSLIP on unicast delay",
     ratio_at_most("fifoms", "islip", "output_delay", 1.3, 0.85)),
    # Documented deviation (EXPERIMENTS.md, Fig. 6 notes): against a
    # run-to-convergence iSLIP our FIFOMS is within ~15% on unicast
    # buffers rather than strictly best at every mid load; the paper
    # does not state its iSLIP iteration count. The multicast figures
    # (4, 7, 8) show the outright buffer win the structure is for.
    ("fig6", "FIFOMS buffer requirement stays within 20% of iSLIP's",
     ratio_at_most("fifoms", "islip", "avg_queue", 1.2, 0.95)),
    ("fig6", "TATRA saturates near the Karol ~0.586 HOL-blocking limit",
     saturates_between("tatra", 0.5, 0.7)),
    ("fig6", "FIFOMS sustains high unicast load", stays_stable("fifoms", 0.9)),
    ("fig6", "iSLIP sustains high unicast load", stays_stable("islip", 0.9)),
    ("fig7", "FIFOMS has the shortest delay among input-queued algorithms",
     is_smallest("fifoms", "output_delay", 0.8, lo=0.0,
                 among=("fifoms", "tatra", "islip"))),
    ("fig7", "FIFOMS buffer occupancy beats even OQFIFO",
     is_smallest("fifoms", "avg_queue", 0.9, slack=1.1, lo=0.5,
                 among=("fifoms", "oqfifo"))),
    ("fig7", "TATRA benefits from larger fanout (stable at 0.6)",
     stays_stable("tatra", 0.6)),
    ("fig7", "FIFOMS stays stable at every swept load",
     stays_stable("fifoms", EVERY_LOAD)),
    ("fig8", "FIFOMS keeps the smallest queue space under bursts",
     total_at_most("fifoms", None, "avg_queue", 1.25, 0.6, lo=0.3)),
    ("fig8", "FIFOMS delay beats TATRA under bursts",
     total_at_most("fifoms", ("tatra",), "output_delay", 1.05, 0.6)),
    ("fig8", "OQFIFO still beats FIFOMS on delay under bursts",
     total_at_most("oqfifo", ("fifoms",), "output_delay", 1.05, 0.6)),
    ("fig8", "iSLIP collapses under bursty multicast", _fig8_islip_collapses),
    ("abl-iterations", "a 1-iteration cap holds every slot to one round",
     max_rounds_at_most(("fifoms-1iter", "islip-1iter"), 1)),
    ("abl-iterations",
     "running to convergence costs at most 1.1x the 1-iteration delay",
     ratio_at_most("fifoms", "fifoms-1iter", "output_delay", 1.1, EVERY_LOAD)),
    # Anderson et al. '93: one PIM iteration matches about 1 - 1/e ~ 0.63
    # of the outputs under saturation.
    ("abl-iterations", "1-iteration PIM saturates between loads 0.5 and 0.7",
     saturates_between("pim-1iter", 0.5, 0.7)),
    ("abl-tiebreak",
     "the three tie-break policies stay within 1.5x + 0.5 slots on delay",
     _tiebreak_spread),
    ("abl-split", "splitting FIFOMS never saturates",
     stays_stable("fifoms", EVERY_LOAD)),
    ("abl-split", "all-or-nothing FIFOMS saturates by load 0.7",
     saturates_between("fifoms-nosplit", 0.0, 0.7)),
    ("abl-schedulers", "FIFOMS never saturates", stays_stable("fifoms", EVERY_LOAD)),
    ("abl-schedulers", "FIFOMS total delay is within 1.1x of SIQ-FIFO's",
     total_at_most("fifoms", ("siq-fifo",), "output_delay", 1.1, EVERY_LOAD)),
    # ESLIP nears saturation by 0.85 (unstable there on some seeds), so
    # the ESLIP rows stop at 0.7.
    ("abl-schedulers", "FIFOMS total delay is no larger than ESLIP's up to load 0.7",
     total_at_most("fifoms", ("eslip",), "output_delay", 1.0, 0.7)),
    ("abl-schedulers", "ESLIP delay is at most 0.85x iSLIP's up to load 0.7",
     ratio_at_most("eslip", "islip", "output_delay", 0.85, 0.7)),
    # From MWM to iSLIP: iSLIP approximates the MaxWeight matching.
    ("abl-schedulers", "MaxWeight (LQF) total delay is no larger than iSLIP's",
     total_at_most("maxweight-lqf", ("islip",), "output_delay", 1.0, EVERY_LOAD)),
    ("ext-mixed", "FIFOMS delay is within 1.1x of TATRA's",
     ratio_at_most("fifoms", "tatra", "output_delay", 1.1, EVERY_LOAD)),
    ("ext-mixed", "FIFOMS delay is within 1.1x of iSLIP's",
     ratio_at_most("fifoms", "islip", "output_delay", 1.1, EVERY_LOAD)),
    ("ext-cicq", "FIFOMS queues are no larger than CICQ's at loads >= 0.5",
     _at_stable(("cicq",), EVERY_LOAD, _cicq_queues_not_smaller, lo=0.5)),
    # Delay analysis of maximal matching with speedup: speedup 2 closes
    # most of the gap to output queueing (plain iSLIP is ~2.8x at 0.3).
    ("ext-cicq", "iSLIP at speedup 2 stays within 1.75x of OQFIFO on delay",
     ratio_at_most("cioq-islip", "oqfifo", "output_delay", 1.75, EVERY_LOAD)),
)


def check_expectations(result: FigureResult) -> list[ExpectationResult]:
    """Score every :data:`CLAIMS` row of the result's figure, in table
    order (an empty list only for a figure id with no rows)."""
    fid = result.spec.figure_id
    return [
        ExpectationResult(fid, claim, *predicate(result))
        for figure_id, claim, predicate in CLAIMS
        if figure_id == fid
    ]
