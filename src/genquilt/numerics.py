"""Characteristic polynomials, certified dominant roots, and growth constants.

Polynomials carry exact integer coefficients; the dominant positive root is
isolated by sign-change scan and exact rational bisection (the bracket is a
certificate), then polished by Newton steps inside the bracket.  Remaining
root moduli come from deflation and a Durand-Kerner iteration run at twice
the requested precision, seeded on a circle inside the Cauchy bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import mpmath as mp

from .generacci import SBParams


@dataclass(frozen=True)
class Polynomial:
    """Integer-coefficient polynomial, coefficients in ascending degree order."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs or self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

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

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(tuple(out))

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


def count_char_full() -> Polynomial:
    """r^9 - r^8 - r^7 + r^6 - r^4 + 1, the raw count recurrence polynomial.

    Factors exactly as (r - 1)(r + 1) times :func:`count_char`.
    """
    return monomial_poly((9, 1), (8, -1), (7, -1), (6, 1), (4, -1), (0, 1))


def greedy_aux_char() -> Polynomial:
    """r^5 - r^4 - 1, for the shifted greedy-success count g_n = h_n + 1.

    Factors exactly as (r^3 - r - 1)(r^2 - r + 1).
    """
    return monomial_poly((5, 1), (4, -1), (0, -1))


@dataclass(frozen=True)
class RootReport:
    """Dominant-root analysis of one characteristic polynomial."""

    dominant_root: float
    error_bound: float
    secondary_modulus: float
    leading_constant: float | None = None
    residual: float | None = None


class LeadingConstantFit(NamedTuple):
    value: float
    residual: float


def resultant(p: Polynomial, q: Polynomial) -> int:
    """Exact resultant via the Sylvester matrix (Fraction elimination)."""
    n, m = p.degree, q.degree
    size = n + m
    rows: list[list[Fraction]] = []
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    for i in range(m):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in pc] + [Fraction(0)] * (size - n - 1 - i))
    for i in range(n):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in qc] + [Fraction(0)] * (size - m - 1 - i))
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            f = rows[r][col] * inv
            if f:
                for c in range(col, size):
                    rows[r][c] -= f * rows[col][c]
    assert det.denominator == 1
    return det.numerator


def dominant_root_bracket(
    p: Polynomial, tol: Fraction | float, scan_bound: int | None = None
) -> tuple[Fraction, Fraction]:
    """Certified bracket [lo, hi] around the unique root in (1, B], width <= tol.

    Scans unit steps for a sign change (B defaults to the Cauchy bound), then
    bisects with exact rational arithmetic, so the bracket is a proof.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    lead = p.coeffs[-1]
    if scan_bound is None:
        scan_bound = 2 + max(abs(c) for c in p.coeffs[:-1]) // abs(lead)
    sign_at = lambda x: (p(x) > 0) - (p(x) < 0)
    lo = Fraction(1)
    s_lo = sign_at(lo)
    if s_lo == 0:  # root exactly at 1 is out of scope (dominant root > 1)
        lo = Fraction(1, 1) + min(tol, Fraction(1, 1024))
        s_lo = sign_at(lo)
    hi = None
    x = Fraction(2)
    while x <= scan_bound + 1:
        if sign_at(x) != s_lo:
            hi = x
            break
        lo, x = x, x + 1
    if hi is None:
        raise ValueError(f"no dominant root: no sign change on (1, {scan_bound}] for {p}")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        s_mid = sign_at(mid)
        if s_mid == 0:
            half = tol / 2
            lo, hi = mid - half, mid + half
            break
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _working_dps(tol: float) -> int:
    # twice the requested precision, floor of 30 digits
    return max(30, int(2 * -math.log10(tol)) + 10)


def _deflate(coeffs: Sequence, root):
    """Synthetic division by (x - root); drops the remainder."""
    out = []
    acc = mp.mpc(0)
    for c in reversed(list(coeffs)):
        acc = acc * root + c
        out.append(acc)
    return list(reversed(out[:-1]))  # quotient has the remainder stripped


def _durand_kerner(coeffs: Sequence, dps: int) -> list:
    """All complex roots of a monic-izable polynomial at ``dps`` digits."""
    with mp.workdps(dps):
        lead = coeffs[-1]
        c = [mp.mpc(x) / lead for x in coeffs]
        n = len(c) - 1
        if n == 0:
            return []
        cauchy = 1 + max(abs(x) for x in c[:-1])
        seed = mp.mpc("0.4", "0.9")
        roots = [0.7 * cauchy * seed ** k for k in range(n)]
        descending = list(reversed(c))
        eps = mp.mpf(10) ** (-dps + 5)
        for _ in range(400):
            shift = mp.mpf(0)
            new = []
            for i, w in enumerate(roots):
                num = mp.polyval(descending, w)
                den = mp.mpf(1)
                for j, v in enumerate(roots):
                    if j != i:
                        den *= w - v
                delta = num / den
                shift = max(shift, abs(delta))
                new.append(w - delta)
            roots = new
            if shift < eps:
                break
        return roots


def _secondary_modulus(p: Polynomial, dominant: Fraction, tol: float) -> float:
    dps = _working_dps(tol)
    if p.degree == 1:
        return 0.0
    with mp.workdps(dps):
        deflated = _deflate(p.coeffs, mp.mpf(dominant.numerator) / dominant.denominator)
        rest = _durand_kerner(deflated, dps)
        return float(max(abs(r) for r in rest))


def dominant_root(p: Polynomial, tol: float = 1e-12) -> RootReport:
    """The unique positive root exceeding 1, plus the next-largest modulus.

    The caller asserts such a root exists (true for every in-scope
    polynomial); absence of a sign change on the scan range is an error.
    """
    if p.degree < 1:
        raise ValueError("degree must be >= 1")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    lo, hi = dominant_root_bracket(p, Fraction(tol))
    mid = (lo + hi) / 2
    root = _newton_polish(p, mid, lo, hi)
    return RootReport(
        dominant_root=root,
        error_bound=float(hi - lo),
        secondary_modulus=_secondary_modulus(p, mid, tol),
    )


def _newton_polish(p: Polynomial, x0: Fraction, lo: Fraction, hi: Fraction) -> float:
    dp = p.derivative()
    x = float(x0)
    for _ in range(4):
        slope = dp(x)
        if slope == 0:
            break
        nxt = x - p(x) / slope
        if not (float(lo) <= nxt <= float(hi)):
            break
        x = nxt
    return x


def generacci_char_analysis(params: SBParams, tol: float = 1e-12) -> RootReport:
    """Dominant root of the (s,b) system via the bin-level polynomial.

    Solves y^{s+1} - y^s - b for its unique positive root r (which lies in
    (1, b+2): the value at 1 is -b and at b+1 is positive) and reports
    r^{1/b}.  Checks square-freeness exactly via the resultant with the
    derivative, and r > 1 via the bracket.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    aux = generacci_aux(params)
    if resultant(aux, aux.derivative()) == 0:
        raise ArithmeticError(f"repeated root in {aux}")  # impossible for b >= 1
    # bracket the y-root at half the tolerance so the root-of-root bound
    # stays within tol even for b = 1
    lo, hi = dominant_root_bracket(aux, Fraction(tol) / 2, params.b + 2)
    assert lo >= 1
    b = params.b
    dps = _working_dps(tol)
    with mp.workdps(dps):
        r_lo = mp.mpf(lo.numerator) / lo.denominator
        r_hi = mp.mpf(hi.numerator) / hi.denominator
        lam_lo = r_lo ** (mp.mpf(1) / b)
        lam_hi = r_hi ** (mp.mpf(1) / b)
        lam = float((lam_lo + lam_hi) / 2)
        err = float(lam_hi - lam_lo) + float(hi - lo) * 1e-6
    sec_y = _secondary_modulus(aux, (lo + hi) / 2, tol)
    return RootReport(
        dominant_root=lam,
        error_bound=err,
        secondary_modulus=sec_y ** (1.0 / b),
    )


def fit_leading_constant(
    terms: Sequence[int], lambda1: float, stride: int = 1
) -> LeadingConstantFit:
    """Limit of terms[n] / lambda1^n over the last quartile of one residue class.

    ``stride`` should be b for an (s,b) sequence (the constant depends on the
    residue of n mod b; the class of the final index is used) and 1 for the
    quilt and count sequences.  The residual is the spread of the ratios
    across the quartile, an empirical convergence check.
    """
    n_terms = len(terms)
    if n_terms < 20:
        raise ValueError(f"need at least 20 terms, got {n_terms}")
    if lambda1 <= 1:
        raise ValueError(f"lambda1 must exceed 1, got {lambda1}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    dps = max(30, int(n_terms * math.log10(lambda1)) + 20)
    start = max(1, (3 * n_terms) // 4)
    with mp.workdps(dps):
        lam = mp.mpf(lambda1)
        ratios = [
            mp.mpf(terms[n - 1]) / lam ** n
            for n in range(n_terms, start - 1, -stride)
        ]
        value = float(ratios[0])  # ratio at the largest index, best converged
        residual = float(max(ratios) - min(ratios))
    return LeadingConstantFit(value, residual)
