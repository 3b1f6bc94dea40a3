"""Characteristic polynomials, certified dominant roots, and growth constants.

Polynomials carry exact integer coefficients.  The dominant positive root
is isolated by a sign-change scan, and its bracket is the cell that exact
bisection would reach, found in O(log k) exact evaluations for k bits by
Newton steps at doubling precision that integer sign checks certify (the
bracket is a certificate).  One safeguarded Newton loop in doubles both
seeds that search and polishes the root inside the bracket.  The other
roots come from one Durand-Kerner iteration in double precision, seeded
evenly on the circle of the Fujiwara bound.  One report path serves both
families: a polynomial's own root, and the (s,b) rate r^{1/b}, whose r is
the polished root of the bin-level polynomial and whose error bound comes
from r's exact bracket.  Leading-constant fits are exact integer ratios
rounded once, so nothing depends on a working precision.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from . import BudgetExceededError
from .generacci import FrozenRecord, SBParams

#: Default bracket width of dominant_root and generacci_char_analysis.
DEFAULT_TOL = 1e-12
ROOT_DEGREE_BUDGET = 256  # degree s+1 of the (s,b) bin-level polynomial
_DK_STEPS = 500  # Durand-Kerner sweeps before the roots count as unconverged
_FIRST_LEVEL = 48  # grid bits a double's root can place; the bracket search starts there
_GUARD_BITS = 8  # each level has 8 bits fewer than twice the last, for Newton's constant
_FLOAT_STEPS = 100  # safeguarded Newton steps in doubles


class Polynomial(FrozenRecord):
    """Integer-coefficient polynomial, coefficients in ascending degree order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        if not coeffs or coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        self._set("coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def __str__(self) -> str:
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c:
                parts.append(f"{c:+d}*x^{i}" if i else f"{c:+d}")
        return " ".join(parts) or "0"


def monomial_poly(*terms: tuple[int, int]) -> Polynomial:
    """Build a polynomial from (degree, coefficient) pairs."""
    top = max(d for d, _ in terms)
    coeffs = [0] * (top + 1)
    for d, c in terms:
        coeffs[d] += c
    return Polynomial(tuple(coeffs))


def quilt_char() -> Polynomial:
    """x^3 - x - 1, from the minimal 3-term quilt recurrence."""
    return monomial_poly((3, 1), (1, -1), (0, -1))


def generacci_char(params: SBParams) -> Polynomial:
    """x^{(s+1)b} - x^{sb} - b, the full (s,b) characteristic polynomial."""
    s, b = params.s, params.b
    return monomial_poly(((s + 1) * b, 1), (s * b, -1), (0, -b))


def generacci_aux(params: SBParams) -> Polynomial:
    """y^{s+1} - y^s - b, the bin-level polynomial obtained via y = x^b."""
    s, b = params.s, params.b
    return monomial_poly((s + 1, 1), (s, -1), (0, -b))


def count_char() -> Polynomial:
    """r^7 - r^6 - r^2 - 1, governing the decomposition-count growth."""
    return monomial_poly((7, 1), (6, -1), (2, -1), (0, -1))


def greedy_aux_char() -> Polynomial:
    """r^5 - r^4 - 1, for the shifted greedy-success count g_n = h_n + 1.

    Factors exactly as (r^3 - r - 1)(r^2 - r + 1).
    """
    return monomial_poly((5, 1), (4, -1), (0, -1))


class RootReport(NamedTuple):
    """Dominant-root analysis of one characteristic polynomial.

    ``dominant_root`` is a double inside the exact root bracket, polished by
    the same safeguarded Newton loop that seeds the bracket search.
    ``error_bound`` is the width of the exact root bracket (for (s,b), the
    bracket of y = x^b divided by b), rounded up to a double, so it is never
    below that width and never 0.  It is not the error of the float
    ``dominant_root``: that is limited by the spacing of doubles, so below
    about 1e-16 it can exceed ``error_bound``.
    """

    dominant_root: float
    error_bound: float
    secondary_modulus: float


class LeadingConstantFit(NamedTuple):
    value: float
    residual: float


def _exact_tol(tol: Fraction | float) -> Fraction:
    """``tol`` as an exact Fraction; NaN, infinities and values <= 0 are refused."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    return Fraction(tol)


def dominant_root_bracket(p: Polynomial, tol: Fraction | float) -> tuple[Fraction, Fraction]:
    """Certified bracket [lo, hi] around the unique root in (1, B], width <= tol.

    Scans unit steps up to the Cauchy bound B for a sign change [L, H], and
    returns the cell of the grid L + w*i/2^k, w = H - L, that bisecting k
    times would reach, with k the fewest halvings that bring w within tol.
    The cell is found level by level, the grid's bit count about doubling
    at each: a Newton step in doubles proposes the first cell, an exact
    integer Newton step from the certified cell's midpoint the next one, and
    sign checks certify each proposal by galloping to the sign change and
    bisecting the gallop window.  A grid point that is the root returns
    root -/+ tol/2; a root at H stays as hi.  The end-point signs are the proof.
    """
    tol = _exact_tol(tol)
    lead = p.coeffs[-1]
    scan_bound = 2 + max(abs(c) for c in p.coeffs[:-1]) // abs(lead)

    def sign_at(num: int, den: int) -> int:
        # den^d * p(num/den) by Horner in integers; den > 0 keeps the sign of p
        acc, scale = 0, 1
        for c in reversed(p.coeffs):
            acc = acc * num + c * scale
            scale *= den
        return (acc > 0) - (acc < 0)

    lo = Fraction(1)
    s_lo = sign_at(1, 1)
    if s_lo == 0:  # root exactly at 1 is out of scope (dominant root > 1)
        lo += min(tol, Fraction(1, 1024))
        s_lo = sign_at(lo.numerator, lo.denominator)
    for x in range(2, scan_bound + 2):
        if sign_at(x, 1) != s_lo:
            break
        lo = Fraction(x)
    else:
        raise ValueError(f"no dominant root: no sign change on (1, {scan_bound}] for {p}")
    a, den = lo.numerator, lo.denominator
    w = x * den - a  # the grid's point i at level K is L + (H - L) * i / 2^K

    def point(i: int, level: int) -> tuple[int, int]:
        return (a << level) + i * w, den << level

    # k = ceil(log2((H - L) / tol)), or 0
    need, have = w * tol.denominator, tol.numerator * den
    k = max(0, need.bit_length() - have.bit_length())
    k += need > have << k
    levels = [k]
    while levels[-1] > _FIRST_LEVEL:
        levels.append((levels[-1] + _GUARD_BITS + 1) // 2)
    seed = _float_root(p, float(lo), float(x))
    cell, at = 0, 0  # the certified cell [cell, cell + 1] at level ``at``
    for level in reversed(levels):
        low, high = cell << (level - at), (cell + 1) << (level - at)
        if not at:
            probe = -1 if seed is None else int((seed - lo) / (x - lo) * 2.0**level)
        else:  # one exact Newton step t = mid - p/p' from the cell's midpoint
            num, mid_den = point(2 * cell + 1, at + 1)
            acc = slope = 0
            scale = 1
            for c in reversed(p.coeffs):
                slope = slope * num + acc
                acc = acc * num + c * scale
                scale *= mid_den
            # t's coordinate on the grid of ``level``, with q = mid_den^(d-1) p'(mid) w
            q = slope * w
            probe = (((2 * cell + 1) * q - acc) << (level - at - 1)) // q if q else -1
        step = 1
        while high - low > 1:  # gallop from the probe, then bisect the window
            if not low < probe < high:
                probe = (low + high) // 2
            s_probe = sign_at(*point(probe, level))
            if s_probe == 0:
                root, half = Fraction(*point(probe, level)), tol / 2
                return root - half, root + half
            if s_probe == s_lo:
                low, probe = probe, probe + step
            else:
                high, probe = probe, probe - step
            step *= 2
        cell, at = low, level
    return Fraction(*point(cell, k)), Fraction(*point(cell + 1, k))


def _float_root(p: Polynomial, a: float, b: float) -> float | None:
    """A double near the sign change in [a, b], or None on overflow or NaN.

    Newton steps, with a bisection whenever a step leaves the bracket or is
    not half the one before last (the safeguard of Numerical Recipes' rtsafe).
    """
    dp = p.derivative()
    try:
        rising = p(a) < 0
        x, step, last = (a + b) / 2, b - a, b - a
        for _ in range(_FLOAT_STEPS):
            fx = p(x)
            if fx != fx:
                return None
            if (fx < 0) == rising:
                a = x
            else:
                b = x
            slope = dp(x)
            new = fx / slope if slope else last
            if x - new == x:
                break
            if not (a < x - new < b and 2 * abs(new) < abs(last)):
                new = x - (a + b) / 2
            last, step = step, new
            x -= new
    except OverflowError:
        return None
    return x


def complex_roots(p: Polynomial) -> list[complex]:
    """All roots of ``p`` in double precision, by Durand-Kerner on ``p`` itself.

    The seeds sit evenly on the circle of the Fujiwara bound, which encloses
    every root.  A run that does not settle within its step cap, or leaves
    the finite floats, raises ``ArithmeticError`` rather than return
    meaningless roots.  The roots depend only on the coefficients, so a
    bounded process-wide memo keeps the last runs; each call gets a new list.
    """
    return list(_durand_kerner(p.coeffs))


@lru_cache(maxsize=64)
def _durand_kerner(coeffs: tuple[int, ...]) -> tuple[complex, ...]:
    p = Polynomial(coeffs)
    n = p.degree
    lead = p.coeffs[-1]
    radius = 2 * max(abs(p.coeffs[n - k] / lead) ** (1 / k) for k in range(1, n + 1))
    roots = [cmath.rect(radius, 2 * math.pi * (k + 0.25) / n) for k in range(n)]
    for _ in range(_DK_STEPS):
        shift = 0.0
        for i, w in enumerate(roots):
            den = lead
            for j, v in enumerate(roots):
                if j != i:
                    den *= w - v
            delta = p(w) / den
            roots[i] = w - delta
            shift = max(shift, abs(delta))
        if not all(map(cmath.isfinite, roots)):
            break
        if shift <= 1e-15 * radius:
            return tuple(roots)
    raise ArithmeticError(f"roots of {p} did not converge")


def _report(p: Polynomial, tol: Fraction | float, b: int) -> RootReport:
    """The unique positive root y > 1 of ``p`` as lambda = y^{1/b}, with its bounds.

    The one report path of both families: b = 1 for ``dominant_root``, and
    b for the (s,b) bin-level polynomial, where y = x^b.  The caller asserts
    such a root exists; absence of a sign change on the scan range is an
    error.  The root is ``_float_root`` run on the exact bracket, so however
    wide ``tol`` is, it is converged in doubles; should that loop overflow,
    the bracket's midpoint stands in.  On y >= 1 the map y -> y^{1/b} has
    slope at most 1/b, so ``error_bound`` is the bracket's width divided by
    b, rounded up to a double: never below it, and never 0.  The float
    root's own error can exceed it when ``tol`` is below about 1e-16.  The
    secondary modulus is the largest among the other roots of ``p``, each
    taken to the power 1/b.
    """
    lo, hi = dominant_root_bracket(p, tol)
    assert lo >= 1
    y = _float_root(p, float(lo), float(hi))
    if y is None:
        y = float((lo + hi) / 2)
    width = (hi - lo) / b
    bound = float(width)
    if bound < width:
        bound = math.nextafter(bound, math.inf)
    rest = sorted(complex_roots(p), key=lambda z: abs(z - y))[1:]
    secondary = max((abs(z) for z in rest), default=0.0)
    return RootReport(y ** (1 / b), bound, secondary ** (1 / b))


def dominant_root(p: Polynomial, tol: float = DEFAULT_TOL) -> RootReport:
    """The unique positive root exceeding 1, plus the next-largest modulus (``_report``).

    ``error_bound`` is the exact bracket's width, at most ``tol``.
    """
    if p.degree < 1:
        raise ValueError("degree must be >= 1")
    return _report(p, tol, 1)


def generacci_char_analysis(params: SBParams, tol: float = DEFAULT_TOL) -> RootReport:
    """Dominant root lambda = r^{1/b} of the (s,b) system (``_report``).

    r is the unique positive root of y^{s+1} - y^s - b; it lies in (1, b+2),
    as the value at 1 is -b and at b+1 is positive.  The y-root is
    bracketed at half the tolerance, so the bound stays within tol even for
    b = 1.

    The polynomial is square-free for every s, b >= 1: its derivative is
    y^{s-1}((s+1)y - s), so a repeated root could only be 0 or s/(s+1), but
    aux(0) = -b and aux(s/(s+1)) = -(s/(s+1))^s/(s+1) - b are both negative.
    """
    half_tol = _exact_tol(tol) / 2
    if params.s + 1 > ROOT_DEGREE_BUDGET:
        raise BudgetExceededError("(s,b) root degree", params.s + 1, ROOT_DEGREE_BUDGET)
    return _report(generacci_aux(params), half_tol, params.b)


def fit_leading_constant(
    terms: Sequence[int], lambda1: float, stride: int = 1
) -> LeadingConstantFit:
    """Limit of terms[n] / lambda1^n over the last quartile of one residue class.

    ``stride`` should be b for an (s,b) sequence (the constant depends on the
    residue of n mod b; the class of the final index is used) and 1 for the
    quilt and count sequences.  The residual is the spread of the ratios
    across the quartile, an empirical convergence check.  The ratios are
    exact rationals, each rounded once to a float.
    """
    n_terms = len(terms)
    if n_terms < 20:
        raise ValueError(f"need at least 20 terms, got {n_terms}")
    if lambda1 <= 1:
        raise ValueError(f"lambda1 must exceed 1, got {lambda1}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    start = max(1, (3 * n_terms) // 4)
    # lambda1 = a / 2^k exactly, so terms[n-1] / lambda1^n = x_n / a^N with
    # x_n = terms[n-1] * a^(N-n) * 2^(kn) an integer
    a, two_k = lambda1.as_integer_ratio()
    k = two_k.bit_length() - 1
    a_stride, a_power = a**stride, 1
    scaled = []
    for n in range(n_terms, start - 1, -stride):
        scaled.append((terms[n - 1] * a_power) << (k * n))
        a_power *= a_stride
    denom = a**n_terms
    # ratio at the largest index, best converged; int / int rounds correctly
    return LeadingConstantFit(scaled[0] / denom, (max(scaled) - min(scaled)) / denom)
