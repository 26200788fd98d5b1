"""Burstiness analytics for the on/off Markov traffic model.

The two-state chain of :class:`~repro.traffic.burst.BurstMulticastTraffic`
has closed-form second-order statistics, which makes the burst generator
*provably* correct rather than just plausible:

* the state autocorrelation at lag k is ``r^k`` with
  ``r = 1 − 1/e_on − 1/e_off`` (the chain's second eigenvalue);
* the stationary on-probability is ``e_on / (e_on + e_off)``;
* the index of dispersion of counts (IDC) over long windows approaches
  ``(1−p_on)·(1+r)/(1−r)`` — derived and implemented in
  :func:`onoff_idc_limit`.

Tests drive the generator and check the measured statistics against
these formulas; experiments use them to reason about how much
correlation a given (e_off, e_on) injects.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.validation import check_positive

__all__ = [
    "onoff_eigenvalue",
    "onoff_autocorrelation",
    "onoff_idc_limit",
    "measure_autocorrelation",
]


def onoff_eigenvalue(e_off: float, e_on: float) -> float:
    """Second eigenvalue r = 1 − 1/e_on − 1/e_off of the 2-state chain.

    |r| < 1 always; r > 0 means positively correlated (bursty) arrivals,
    r = 0 memoryless, r < 0 alternating.
    """
    e_off = check_positive(e_off, "e_off")
    e_on = check_positive(e_on, "e_on")
    if e_off < 1.0 or e_on < 1.0:
        raise ConfigurationError("mean sojourns must be >= 1 slot")
    return 1.0 - 1.0 / e_on - 1.0 / e_off


def onoff_autocorrelation(e_off: float, e_on: float, lag: int) -> float:
    """Autocorrelation of the on/off indicator at integer ``lag`` >= 0."""
    if lag < 0:
        raise ConfigurationError(f"lag must be >= 0, got {lag}")
    return onoff_eigenvalue(e_off, e_on) ** lag


def onoff_idc_limit(e_off: float, e_on: float) -> float:
    """Limiting index of dispersion of counts of the on/off arrivals.

    For the indicator process X_t with P(on) = p, Var(X) = p(1−p) and
    autocorrelation r^k, the count variance over a window of W slots
    grows like W·Var(X)·(1+r)/(1−r); dividing by the mean count W·p gives

        IDC(∞) = (1−p) · (1+r)/(1−r).

    With r = 0 (memoryless) this is the Bernoulli value (1−p).
    """
    r = onoff_eigenvalue(e_off, e_on)
    p_on = e_on / (e_on + e_off)
    return (1.0 - p_on) * (1.0 + r) / (1.0 - r)


def measure_autocorrelation(series: np.ndarray, lag: int) -> float:
    """Sample autocorrelation of a 1-D series at ``lag`` (biased form)."""
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1 or x.size <= lag or lag < 0:
        raise ConfigurationError(
            f"need a 1-D series longer than lag, got shape {x.shape}, lag {lag}"
        )
    x = x - x.mean()
    denom = float((x * x).sum())
    if denom == 0.0:
        raise ConfigurationError("constant series has undefined autocorrelation")
    if lag == 0:
        return 1.0
    return float((x[:-lag] * x[lag:]).sum() / denom)
