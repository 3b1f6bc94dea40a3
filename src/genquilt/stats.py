"""Exact summand-count distributions for (s,b) systems and normality checks.

Decompositions are unique, so counting the integers in [0, a_{bn+1}) with k
summands is counting the legal k-summand choices over the first n bins.  A
choice occupies k bins with at least s empty bins between neighbours and
picks one of the b terms in each occupied bin.  Deleting the s(k-1) bins
that the gaps force leaves k free bins among n - s(k-1), so the count is
b^k * C(n - s(k-1), k), with k running up to (n + s) // (s + 1).

The interval is always the full [0, a_{bn+1}); restrictions to sub-intervals
are out of scope.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .generacci import SBParams, check_size, generate

DISTRIBUTION_BUDGET = 500


class SummandDistribution(NamedTuple):
    """Exact histogram of summand counts over [0, a_{bn+1})."""

    params: SBParams
    n: int
    histogram: dict[int, int]
    mean: Fraction
    variance: Fraction

    @property
    def total(self) -> int:
        return sum(self.histogram.values())


class GaussianFit(NamedTuple):
    """Linear fits mean ~ A n + B, variance ~ C n + D, and a normality distance."""

    a_hat: float
    b_hat: float
    c_hat: float
    d_hat: float
    ks_distance: float


def _count_polynomial(params: SBParams, n: int) -> list[int]:
    """Coefficient k = number of integers in [0, a_{bn+1}) with k summands."""
    s, b = params.s, params.b
    return [b**k * math.comb(n - s * (k - 1), k) for k in range((n + s) // (s + 1) + 1)]


def summand_distribution(params: SBParams, n: int) -> SummandDistribution:
    """Exact distribution of the summand count; its total is checked against a_{bn+1}."""
    check_size("n", n, "distribution bin count", DISTRIBUTION_BUDGET)
    poly = _count_polynomial(params, n)
    total = sum(poly)
    expected_total = generate(params, params.b * n + 1).term(params.b * n + 1)
    if total != expected_total:
        raise AssertionError(f"histogram total {total} != a_(bn+1) = {expected_total}")
    mean = Fraction(sum(k * v for k, v in enumerate(poly)), total)
    second = Fraction(sum(k * k * v for k, v in enumerate(poly)), total)
    histogram = {k: v for k, v in enumerate(poly) if v}
    return SummandDistribution(params, n, histogram, mean, second - mean * mean)


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def ks_normal_distance(dist: SummandDistribution) -> float:
    """Sup distance between the histogram CDF and the standard normal.

    The histogram is standardized exactly (its own mean and variance) and its
    CDF is read at the bin edges k + 1/2, the usual continuity-corrected
    comparison for an integer lattice.
    """
    mu = float(dist.mean)
    sigma = math.sqrt(float(dist.variance))
    if sigma == 0:
        raise ArithmeticError("zero variance, nothing to standardize")
    total = dist.total
    worst = 0.0
    cum = 0
    for k in sorted(dist.histogram):
        cum += dist.histogram[k]
        z = (k + 0.5 - mu) / sigma
        worst = max(worst, abs(cum / total - _phi(z)))
    return worst


def _linear_fit(xs: list[float], ys: list[float]) -> tuple[float, float]:
    n = len(xs)
    xm = sum(xs) / n
    ym = sum(ys) / n
    sxx = sum((x - xm) ** 2 for x in xs)
    slope = sum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / sxx
    return slope, ym - slope * xm


def gaussian_fit(params: SBParams, n_min: int, n_max: int) -> GaussianFit:
    """Fit mean and variance linearly in n over [n_min, n_max].

    The KS distance is evaluated at n_max on the exactly standardized
    distribution.  Both ends, and the b*n_max + 1 sequence terms the last
    distribution checks its total against, are checked before any
    distribution is built.
    """
    if n_max - n_min < 5:
        raise ValueError(f"need n_max - n_min >= 5, got [{n_min}, {n_max}]")
    for n in (n_min, n_max):
        check_size("n", n, "distribution bin count", DISTRIBUTION_BUDGET)
    generate(params, params.b * n_max + 1)
    ns = list(range(n_min, n_max + 1))
    dists = [summand_distribution(params, n) for n in ns]
    a_hat, b_hat = _linear_fit([float(n) for n in ns], [float(d.mean) for d in dists])
    c_hat, d_hat = _linear_fit([float(n) for n in ns], [float(d.variance) for d in dists])
    return GaussianFit(a_hat, b_hat, c_hat, d_hat, ks_normal_distance(dists[-1]))
