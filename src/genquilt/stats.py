"""Exact summand-count distributions for (s,b) systems and normality checks.

Uniqueness of decompositions turns integer counting into decomposition
counting, so the distribution of the summand count over [0, a_{bn+1}) is
computed exactly by a dynamic program over bins: walk bins left to right,
keep the (capped) distance to the last occupied bin, and let each occupied
bin multiply the count by b and bump the summand count.  No interval
enumeration is involved, so n in the hundreds stays cheap.

The interval is always the full [0, a_{bn+1}); restrictions to sub-intervals
are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError
from .generacci import SBParams, generate

DISTRIBUTION_BUDGET = 500


@dataclass
class SummandDistribution:
    """Exact histogram of summand counts over [0, a_{bn+1})."""

    params: SBParams
    n: int
    histogram: dict[int, int]
    mean: Fraction
    variance: Fraction

    @property
    def total(self) -> int:
        return sum(self.histogram.values())


@dataclass(frozen=True)
class GaussianFit:
    """Linear fits mean ~ A n + B, variance ~ C n + D, and a normality distance."""

    a_hat: float
    b_hat: float
    c_hat: float
    d_hat: float
    ks_distance: float


def _count_polynomial(params: SBParams, n: int) -> list[int]:
    """Coefficient k = number of integers in [0, a_{bn+1}) with k summands."""
    s, b = params.s, params.b
    # state: bins since the last occupied one, capped at s (cap is enough:
    # occupying is allowed exactly when the distance has reached s)
    states: dict[int, list[int]] = {s: [1]}
    for _ in range(n):
        nxt: dict[int, list[int]] = {}

        def pour(state: int, poly: list[int], shift: int, factor: int) -> None:
            dst = nxt.setdefault(state, [])
            if len(dst) < len(poly) + shift:
                dst.extend([0] * (len(poly) + shift - len(dst)))
            for k, v in enumerate(poly):
                dst[k + shift] += v * factor

        for st, poly in states.items():
            pour(min(st + 1, s), poly, 0, 1)  # leave the bin empty
            if st >= s:
                pour(0, poly, 1, b)  # occupy: b choices, one more summand
        states = nxt
    out: list[int] = []
    for poly in states.values():
        if len(out) < len(poly):
            out.extend([0] * (len(poly) - len(out)))
        for k, v in enumerate(poly):
            out[k] += v
    return out


def summand_distribution(params: SBParams, n: int) -> SummandDistribution:
    """Exact distribution of the summand count; totals a_{bn+1} by construction."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > DISTRIBUTION_BUDGET:
        raise BudgetExceededError("distribution bin count", n, DISTRIBUTION_BUDGET)
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
    if sxx == 0:
        raise ArithmeticError("degenerate fit: no spread in x")
    slope = sum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / sxx
    return slope, ym - slope * xm


def gaussian_fit(params: SBParams, n_min: int, n_max: int) -> GaussianFit:
    """Fit mean and variance linearly in n over [n_min, n_max].

    The KS distance is evaluated at n_max on the exactly standardized
    distribution.  A zero variance anywhere in the range is an error.
    """
    if n_max - n_min < 5:
        raise ValueError(f"need n_max - n_min >= 5, got [{n_min}, {n_max}]")
    ns = list(range(n_min, n_max + 1))
    dists = [summand_distribution(params, n) for n in ns]
    if any(d.variance == 0 for d in dists):
        raise ArithmeticError("zero variance in fitted range")
    a_hat, b_hat = _linear_fit([float(n) for n in ns], [float(d.mean) for d in dists])
    c_hat, d_hat = _linear_fit([float(n) for n in ns], [float(d.variance) for d in dists])
    return GaussianFit(a_hat, b_hat, c_hat, d_hat, ks_normal_distance(dists[-1]))
