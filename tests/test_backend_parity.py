"""Object-vs-vectorized parity on a pinned trace, per registry pairing.

One trace-pinned :func:`repro.kernel.equivalence.run_pair` per pairing
at a moderate and a heavy load: both kernel backends must produce
identical summaries on the identical arrival sequence. (FIFOMS, iSLIP
and TATRA have their own deeper cases in ``test_kernel_parity_traces.py`` /
``test_tatra_traces.py``.)
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.kernel import equivalence
from repro.kernel.equivalence import compare_summaries, run_pair
from repro.traffic.bernoulli import BernoulliMulticastTraffic

#: Every vectorized pairing beyond the FIFOMS/iSLIP pair.
NEWLY_VECTORIZED = (
    "pim",
    "maxweight-lqf",
    "maxweight-ocf",
    "wba",
    "siq-fifo",
    "greedy-mcast",
    "oqfifo",
    "fifoms-prio",
    "cioq-islip",
    "2drr",
    "serena",
    "cicq",
    "eslip",
)

#: (p, b) Bernoulli operating points: moderate and near-saturation.
LOADS = ((0.3, 0.3), (0.6, 0.4))


@pytest.mark.parametrize("load", LOADS, ids=["moderate", "heavy"])
@pytest.mark.parametrize("algorithm", NEWLY_VECTORIZED)
def test_backends_identical_on_pinned_trace(algorithm, load):
    p, b = load
    traffic = BernoulliMulticastTraffic(8, p=p, b=b, rng=42)
    ref, fast = run_pair(algorithm, traffic, 1200, seed=5)
    assert compare_summaries(ref, fast) == []


def test_unknown_switch_kwarg_raises():
    traffic = BernoulliMulticastTraffic(4, p=0.2, b=0.3, rng=0)
    with pytest.raises(TypeError, match="no_such_kwarg"):
        run_pair("fifoms", traffic, 50, no_such_kwarg=1)


def test_vectorized_build_error_is_not_read_as_parity(monkeypatch):
    """``run_pair`` always builds "vectorized" second: a build that
    fails must surface, for every pairing, instead of comparing object
    with object."""
    real_make_switch = equivalence.make_switch

    def refuse_vectorized(name, num_ports, **kwargs):
        if kwargs.get("backend") == "vectorized":
            raise ConfigurationError("vectorized build refused")
        return real_make_switch(name, num_ports, **kwargs)

    monkeypatch.setattr(equivalence, "make_switch", refuse_vectorized)
    traffic = BernoulliMulticastTraffic(4, p=0.2, b=0.3, rng=0)
    for algorithm in ("fifoms", "tatra"):
        with pytest.raises(ConfigurationError, match="refused"):
            run_pair(algorithm, traffic, 50)
