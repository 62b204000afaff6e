"""Order statistics used by the benchmark."""

from __future__ import annotations

import math
from typing import Optional, Sequence

# percentiles a tail may be reported at, lowest first
TAIL_LADDER = tuple(float(p) for p in range(50, 100)) + (99.5, 99.9)
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def hd_percentile(values: Sequence[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile (Biometrika 69, 1982).

    A weighted mean of all order statistics, with the weights of a Beta(p(n+1),
    (1-p)(n+1)) distribution over the ranks.  Its run-to-run spread is about
    half that of a single interpolated order statistic on the benchmark's job
    timings, where one job's share of a pass holds only ten or so samples.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    n = len(xs)
    a, b = p / 100.0 * (n + 1), (1.0 - p / 100.0) * (n + 1)
    total, below = 0.0, 0.0
    for i, x in enumerate(xs, 1):
        upto = betainc(a, b, i / n)
        total += (upto - below) * x
        below = upto
    return total


def betainc(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function I_x(a, b), for a, b > 0."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b), by the modified Lentz method."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def beyond(values: Sequence[float], p: float) -> int:
    """Number of samples strictly above the p-th percentile."""
    cut = percentile(values, p)
    return sum(1 for v in values if v > cut)


def tail_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile that leaves at least MIN_BEYOND of n distinct samples beyond it.

    The p-th percentile sits at rank (n - 1) * p / 100, so the samples beyond
    it are those above rank floor((n - 1) * p / 100).
    """
    best = None
    for p in TAIL_LADDER:
        rank = (n - 1) * round(p * 10) // 1000  # exact in tenths
        if n - 1 - rank >= MIN_BEYOND:
            best = p
    return best
