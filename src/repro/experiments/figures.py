"""The paper's five result figures, plus ablation specs, as FigureSpec s.

Every evaluation figure of Section V is declared here; the traffic
parameterization uses the exact inverse-load algebra of
:mod:`repro.analysis.loads` so a sweep point at x = 0.6 really offers 0.6
cells per output per slot, empty-fanout correction included.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.loads import (
    bernoulli_arrival_probability,
    burst_e_off_for_load,
    uniform_arrival_probability,
)
from repro.errors import ConfigurationError
from repro.experiments.spec import FigureSpec

__all__ = ["FIGURES", "get_figure"]

#: The paper's switch size.
N = 16

#: The paper's four contenders, in the legend order of its figures.
PAPER_ALGOS = ("fifoms", "tatra", "islip", "oqfifo")

#: Load grid used for the delay/queue figures (x from ~0 to ~1, denser
#: near saturation where the curves bend).
DELAY_LOADS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)

FOUR_PANELS = ("input_delay", "output_delay", "avg_queue", "max_queue")


def _bernoulli_b02(load: float) -> dict[str, Any]:
    return {
        "model": "bernoulli",
        "p": bernoulli_arrival_probability(N, load, 0.2),
        "b": 0.2,
    }


def _uniform_mf1(load: float) -> dict[str, Any]:
    return {
        "model": "uniform",
        "p": uniform_arrival_probability(load, 1),
        "max_fanout": 1,
    }


def _uniform_mf8(load: float) -> dict[str, Any]:
    return {
        "model": "uniform",
        "p": uniform_arrival_probability(load, 8),
        "max_fanout": 8,
    }


def _burst_b05(load: float) -> dict[str, Any]:
    return {
        "model": "burst",
        "e_off": burst_e_off_for_load(N, load, 16.0, 0.5),
        "e_on": 16.0,
        "b": 0.5,
    }


FIGURES: dict[str, FigureSpec] = {}


def _add(spec: FigureSpec) -> None:
    FIGURES[spec.figure_id] = spec


_add(
    FigureSpec(
        figure_id="fig4",
        title="Fig. 4 — 16x16, Bernoulli traffic, b = 0.2",
        description=(
            "Delay and queue metrics vs effective load under Bernoulli "
            "multicast traffic with per-output probability b=0.2 "
            "(mean fanout ~3.3)."
        ),
        num_ports=N,
        algorithms=PAPER_ALGOS,
        loads=DELAY_LOADS,
        traffic_for_load=_bernoulli_b02,
        metrics=FOUR_PANELS,
    )
)

_add(
    FigureSpec(
        figure_id="fig5",
        title="Fig. 5 — convergence rounds, 16x16, Bernoulli b = 0.2",
        description=(
            "Average iterative rounds to convergence of FIFOMS vs iSLIP "
            "under the Fig. 4 workload."
        ),
        num_ports=N,
        algorithms=("fifoms", "islip"),
        loads=DELAY_LOADS,
        traffic_for_load=_bernoulli_b02,
        metrics=("rounds",),
    )
)

_add(
    FigureSpec(
        figure_id="fig6",
        title="Fig. 6 — 16x16, uniform traffic, maxFanout = 1 (pure unicast)",
        description=(
            "The unicast sanity check: FIFOMS should match/surpass iSLIP; "
            "TATRA hits the Karol ~0.586 HOL-blocking wall."
        ),
        num_ports=N,
        algorithms=PAPER_ALGOS,
        loads=DELAY_LOADS,
        traffic_for_load=_uniform_mf1,
        metrics=FOUR_PANELS,
    )
)

_add(
    FigureSpec(
        figure_id="fig7",
        title="Fig. 7 — 16x16, uniform traffic, maxFanout = 8",
        description=(
            "Bounded-fanout multicast (mean fanout 4.5): FIFOMS best of "
            "the input-queued algorithms, beating OQFIFO on buffers."
        ),
        num_ports=N,
        algorithms=PAPER_ALGOS,
        loads=DELAY_LOADS,
        traffic_for_load=_uniform_mf8,
        metrics=FOUR_PANELS,
    )
)

_add(
    FigureSpec(
        figure_id="fig8",
        title="Fig. 8 — 16x16, burst traffic, b = 0.5, Eon = 16",
        description=(
            "Bursty correlated multicast (mean fanout 8, bursts of mean "
            "16 slots): everyone saturates earlier; iSLIP collapses."
        ),
        num_ports=N,
        algorithms=PAPER_ALGOS,
        # Burst traffic saturates much earlier (paper: "the saturated
        # throughput of all the algorithms becomes much lower").
        loads=(0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 0.6, 0.7, 0.8),
        traffic_for_load=_burst_b05,
        metrics=FOUR_PANELS,
    )
)

# --------------------------------------------------------------------- #
# Beyond-paper ablations (DESIGN.md §3, additional benches)
# --------------------------------------------------------------------- #
_add(
    FigureSpec(
        figure_id="abl-iterations",
        title="Ablation — FIFOMS/iSLIP/PIM iteration caps (Bernoulli b = 0.2)",
        description=(
            "Delay cost of capping the scheduling rounds at 1 vs running "
            "to convergence; one-iteration PIM saturates near 1 - 1/e."
        ),
        num_ports=N,
        algorithms=("fifoms", "fifoms-1iter", "islip", "islip-1iter", "pim-1iter"),
        loads=(0.3, 0.5, 0.7, 0.85),
        traffic_for_load=_bernoulli_b02,
        metrics=("output_delay", "avg_queue", "rounds"),
        switch_kwargs={
            "fifoms-1iter": {"max_iterations": 1},
            "islip-1iter": {"max_iterations": 1},
            "pim-1iter": {"max_iterations": 1},
        },
    )
)

_add(
    FigureSpec(
        figure_id="abl-tiebreak",
        title="Ablation — FIFOMS tie-break policies (Bernoulli b = 0.2)",
        description=(
            "Random vs lowest-input vs round-robin output arbitration "
            "among equal time stamps."
        ),
        num_ports=N,
        algorithms=("fifoms", "fifoms-lowest", "fifoms-rr"),
        loads=(0.3, 0.5, 0.7, 0.85),
        traffic_for_load=_bernoulli_b02,
        metrics=("output_delay", "input_delay", "avg_queue"),
        switch_kwargs={
            "fifoms-lowest": {"tie_break": "lowest_input"},
            "fifoms-rr": {"tie_break": "round_robin"},
        },
    )
)

_add(
    FigureSpec(
        figure_id="abl-split",
        title="Ablation — fanout splitting on/off (Bernoulli b = 0.2)",
        description=(
            "FIFOMS with fanout splitting disabled (all-or-nothing "
            "multicast) — the paper's §VI claim that splitting is "
            "necessary for high throughput."
        ),
        num_ports=N,
        algorithms=("fifoms", "fifoms-nosplit"),
        loads=(0.2, 0.4, 0.5, 0.6, 0.7),
        traffic_for_load=_bernoulli_b02,
        metrics=("output_delay", "avg_queue", "throughput"),
        switch_kwargs={"fifoms-nosplit": {"fanout_splitting": False}},
    )
)

_add(
    FigureSpec(
        figure_id="abl-schedulers",
        title="Ablation — wider scheduler shoot-out (Bernoulli b = 0.2)",
        description=(
            "FIFOMS against SIQ-FIFO (its rule without the VOQs), ESLIP "
            "(McKeown's multicast iSLIP), iSLIP and its MaxWeight (LQF) "
            "reference on one workload."
        ),
        num_ports=N,
        algorithms=("fifoms", "siq-fifo", "islip", "eslip", "maxweight-lqf"),
        loads=(0.3, 0.5, 0.7, 0.85),
        traffic_for_load=_bernoulli_b02,
        metrics=("output_delay", "input_delay", "avg_queue", "max_queue"),
    )
)


def _mixed_half_unicast(load: float) -> dict[str, Any]:
    # unicast_fraction 0.5, multicast class b=0.2; mean fanout from the
    # MixedTraffic algebra, inverted numerically for the requested load.
    from repro.traffic.mixed import MixedTraffic

    probe = MixedTraffic(N, p=1.0, unicast_fraction=0.5, b=0.2)
    p = load / probe.average_fanout
    if p > 1.0 + 1e-12:
        raise ConfigurationError(f"load {load} unreachable for the mixed model")
    return {
        "model": "mixed",
        "p": min(p, 1.0),
        "unicast_fraction": 0.5,
        "b": 0.2,
    }


_add(
    FigureSpec(
        figure_id="ext-mixed",
        title="Extension — mixed unicast/multicast traffic (50/50)",
        description=(
            "The introduction's motivating regime: unicast and multicast "
            "interleaved at each input. TATRA's HOL blocking hurts most "
            "here; FIFOMS should hold both delay and buffers."
        ),
        num_ports=N,
        algorithms=PAPER_ALGOS,
        loads=(0.3, 0.5, 0.7, 0.85),
        traffic_for_load=_mixed_half_unicast,
        metrics=("input_delay", "output_delay", "avg_queue"),
    )
)

_add(
    FigureSpec(
        figure_id="ext-cicq",
        title="Extension — buffered crossbar vs matched crossbars",
        description=(
            "CICQ (no central matching, 1-cell crosspoint buffers) vs "
            "iSLIP and FIFOMS on the Fig. 4 workload, and iSLIP at "
            "speedup 2 (CIOQ) against output queueing."
        ),
        num_ports=N,
        algorithms=("fifoms", "islip", "cicq", "oqfifo", "cioq-islip"),
        loads=(0.3, 0.5, 0.7, 0.85),
        traffic_for_load=_bernoulli_b02,
        metrics=("output_delay", "avg_queue", "max_queue"),
    )
)


# Algorithm aliases used by the ablation specs: variants of a base
# algorithm that differ only in constructor kwargs. The sweep resolves
# "fifoms-1iter" to base "fifoms" plus the spec's switch_kwargs.
ALGO_ALIASES: dict[str, str] = {
    "fifoms-1iter": "fifoms",
    "fifoms-nosplit": "fifoms",
    "fifoms-lowest": "fifoms",
    "fifoms-rr": "fifoms",
    "islip-1iter": "islip",
    "pim-1iter": "pim",
}


def get_figure(figure_id: str) -> FigureSpec:
    """Look up a figure/ablation spec by id (e.g. "fig4")."""
    try:
        return FIGURES[figure_id.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown figure {figure_id!r}; available: {', '.join(sorted(FIGURES))}"
        ) from None
