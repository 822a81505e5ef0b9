"""Statistical primitives for the analyzer.

The paper's runtime computation is deliberately light: counting,
percentiles, and one-sided t-tests on outlier *proportions* (significance
level 0.001).  These helpers implement exactly that, with explicit edge
cases so detection never divides by zero on an idle stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from scipy.special import stdtr


@dataclass(frozen=True)
class ProportionTest:
    """Outcome of a one-sided proportion test."""

    reject: bool
    p_value: float
    statistic: float
    observed: float
    baseline: float
    n: int


def proportion_exceeds_test(
    successes: int, n: int, baseline: float, alpha: float = 0.001
) -> ProportionTest:
    """One-sided t-test of H1: true proportion > ``baseline``.

    This is the paper's anomaly trigger: reject H0 (proportion of outlier
    tasks <= training proportion) at significance ``alpha``.

    Implemented as a one-sample t-test on the Bernoulli indicator sample,
    which is what running a textbook t-test over outlier indicators does:
    ``t = (phat - p0) / sqrt(phat (1 - phat) / (n - 1))``.
    """
    if n <= 0:
        return ProportionTest(False, 1.0, 0.0, 0.0, baseline, 0)
    if successes < 0 or successes > n:
        raise ValueError(f"successes={successes} out of range for n={n}")
    if not 0.0 <= baseline <= 1.0:
        raise ValueError(f"baseline must be a proportion, got {baseline}")
    phat = successes / n
    if phat <= baseline:
        return ProportionTest(False, 1.0, 0.0, phat, baseline, n)
    if n == 1:
        # A single observation cannot reject at any sane alpha.
        return ProportionTest(False, 1.0, float("inf"), phat, baseline, n)
    variance = phat * (1.0 - phat)
    if variance == 0.0:
        # Every task was an outlier while the baseline says they should be
        # rare: degenerate sample, overwhelming evidence for n of any size.
        p_value = baseline**n if baseline > 0 else 0.0
        reject = p_value < alpha
        return ProportionTest(reject, p_value, float("inf"), phat, baseline, n)
    statistic = (phat - baseline) / math.sqrt(variance / (n - 1))
    # The Student-t survival function at df = n - 1, straight from its
    # special-function kernel: scipy's distribution layer would cost a
    # 46 MiB import and ~19 us of argument handling per call.
    p_value = float(stdtr(n - 1, -statistic))
    return ProportionTest(p_value < alpha, p_value, statistic, phat, baseline, n)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) with linear interpolation.

    Implemented directly (rather than via numpy) because it is called on
    small per-signature samples in hot training loops.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    return percentile_sorted(sorted(values), q)


def percentile_sorted(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` for input that is *already sorted ascending*.

    The training hot path sorts each signature's durations once and
    derives every threshold from that single sorted array.
    """
    if not ordered:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0,1], got {q}")
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return float(ordered[lower])
    weight = position - lower
    return float(ordered[lower] * (1.0 - weight) + ordered[upper] * weight)


def kfold_splits(n: int, k: int) -> list:
    """Index ranges for k roughly equal folds over ``n`` ordered items."""
    if n <= 0:
        raise ValueError("cannot split an empty sample")
    if k <= 1:
        raise ValueError(f"k must be >= 2, got {k}")
    k = min(k, n)
    base, extra = divmod(n, k)
    splits = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        splits.append((start, start + size))
        start += size
    return splits
