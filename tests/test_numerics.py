"""Root isolation, polynomial identities, and leading-constant fits."""

import hashlib
import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genquilt.generacci import SBParams, generate
from genquilt.numerics import (
    Polynomial,
    complex_roots,
    count_char,
    dominant_root,
    dominant_root_bracket,
    fit_leading_constant,
    generacci_aux,
    generacci_char,
    generacci_char_analysis,
    greedy_aux_char,
    monomial_poly,
    quilt_char,
)
from genquilt.oracle import resultant

GOLDEN = (1 + math.sqrt(5)) / 2


def count_char_full() -> Polynomial:
    """r^9 - r^8 - r^7 + r^6 - r^4 + 1, the raw count recurrence polynomial.

    Factors exactly as (r - 1)(r + 1) times :func:`count_char`.
    """
    return monomial_poly((9, 1), (8, -1), (7, -1), (6, 1), (4, -1), (0, 1))


class TestPolynomial:
    def test_leading_zero_rejected(self):
        with pytest.raises(ValueError):
            Polynomial((1, 0))
        with pytest.raises(ValueError):
            Polynomial(())

    def test_eval_exact_on_fractions(self):
        p = quilt_char()
        x = Fraction(4, 3)
        assert p(x) == x**3 - x - 1

    def test_derivative(self):
        p = monomial_poly((3, 2), (1, -5))
        assert p.derivative().coeffs == (-5, 0, 6)


def product(*polys: Polynomial) -> tuple[int, ...]:
    """Coefficients of the product of ``polys``, ascending degree."""
    out = (1,)
    for p in polys:
        acc = [0] * (len(out) + p.degree)
        for i, a in enumerate(out):
            for j, b in enumerate(p.coeffs):
                acc[i + j] += a * b
        out = tuple(acc)
    return out


def test_count_polynomial_factorization():
    # the degree-9 count polynomial splits off (r-1)(r+1) exactly
    lin = (monomial_poly((1, 1), (0, -1)), monomial_poly((1, 1), (0, 1)))
    assert product(*lin, count_char()) == count_char_full().coeffs


def test_greedy_aux_factorization():
    # r^5 - r^4 - 1 = (r^3 - r - 1)(r^2 - r + 1) exactly
    quad = monomial_poly((2, 1), (1, -1), (0, 1))
    assert product(quilt_char(), quad) == greedy_aux_char().coeffs


def test_greedy_aux_shares_the_cubic_dominant_root():
    # the quadratic cofactor has modulus-1 roots, so both polynomials grow
    # at the same rate
    cubic = dominant_root(quilt_char(), 1e-12)
    quintic = dominant_root(greedy_aux_char(), 1e-12)
    assert abs(cubic.dominant_root - quintic.dominant_root) < 1e-11
    assert quintic.secondary_modulus == pytest.approx(1.0, abs=1e-9)


class TestDominantRoot:
    def test_cubic(self):
        rep = dominant_root(quilt_char(), 1e-10)
        assert rep.dominant_root == pytest.approx(1.32472, abs=5e-6)
        assert rep.error_bound <= 1e-10

    def test_golden_ratio(self):
        rep = dominant_root(monomial_poly((2, 1), (1, -1), (0, -1)), 1e-10)
        assert rep.dominant_root == pytest.approx(GOLDEN, abs=1e-10)

    def test_septic(self):
        rep = dominant_root(count_char(), 1e-10)
        assert rep.dominant_root == pytest.approx(1.39704, abs=5e-6)

    def test_secondary_modulus_cubic(self):
        rep = dominant_root(quilt_char(), 1e-10)
        assert rep.secondary_modulus == pytest.approx(0.8688, abs=1e-3)
        assert rep.secondary_modulus < rep.dominant_root

    def test_secondary_modulus_septic(self):
        rep = dominant_root(count_char(), 1e-10)
        assert rep.secondary_modulus == pytest.approx(1.07378, abs=1e-4)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            dominant_root(quilt_char(), 0.0)
        with pytest.raises(ValueError):
            dominant_root(quilt_char(), -1e-9)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            dominant_root(Polynomial((5,)), 1e-9)

    def test_no_sign_change_is_an_error(self):
        # x^2 + 1 has no root above 1 at all
        with pytest.raises(ValueError, match="no dominant root"):
            dominant_root(monomial_poly((2, 1), (0, 1)), 1e-9)

    def test_refinement_is_monotone(self):
        # halving tol moves the root by no more than the prior error bound
        tol = 1e-4
        prev = dominant_root(count_char(), tol)
        for _ in range(20):
            tol /= 2
            cur = dominant_root(count_char(), tol)
            assert abs(cur.dominant_root - prev.dominant_root) <= prev.error_bound
            prev = cur

    def test_bracket_is_certified(self):
        p = count_char()
        lo, hi = dominant_root_bracket(p, Fraction(1, 10**15))
        assert hi - lo <= Fraction(1, 10**15)
        assert p(lo) < 0 < p(hi)

    def test_error_bound_within_tolerance(self):
        for tol in (1e-6, 1e-10, 1e-12):
            assert dominant_root(count_char(), tol).error_bound <= tol
            assert generacci_char_analysis(SBParams(1, 1), tol).error_bound <= tol
            assert generacci_char_analysis(SBParams(2, 3), tol).error_bound <= tol

    def test_matches_independent_solver(self):
        # cross-check Durand-Kerner + bisection against mpmath's polyroots
        sb_params = [SBParams(s, b) for s in (1, 2, 3) for b in (1, 2, 3)] + [SBParams(120, 1000)]
        for poly in (quilt_char(), count_char(), greedy_aux_char(), *map(generacci_aux, sb_params)):
            rep = dominant_root(poly, 1e-12)
            # From its own seeds mpmath needs about 30 s at degree 121.  Started
            # from the double-precision roots it needs a few steps, and its
            # iteration rests only on the full root set, so it still checks them.
            init = complex_roots(poly) if poly.degree > 10 else None
            with mp.workdps(30):
                roots = mp.polyroots(list(reversed(poly.coeffs)), maxsteps=100, extraprec=20, roots_init=init)
                by_mod = sorted((abs(r) for r in roots), reverse=True)
                assert rep.dominant_root == pytest.approx(float(by_mod[0]), abs=1e-11)
                assert rep.secondary_modulus == pytest.approx(float(by_mod[1]), abs=1e-12)

    def test_root_finder_never_returns_nan(self):
        # w^200 overflows a double on the seed circle; the finder must refuse
        with pytest.raises(ArithmeticError):
            complex_roots(monomial_poly((200, 1), (0, -(10**300))))
        with pytest.raises(ArithmeticError):
            dominant_root(monomial_poly((200, 1), (0, -(10**300))), 1e-9)


def test_durand_kerner_runs_once_per_polynomial(monkeypatch):
    evaluations = []
    real = Polynomial.__call__
    monkeypatch.setattr(Polynomial, "__call__", lambda p, x: evaluations.append(x) or real(p, x))
    poly = monomial_poly((4, 1), (3, -2), (0, -11))  # not used elsewhere
    first = complex_roots(poly)
    swept = len(evaluations)
    assert swept
    want = list(first)
    first[0] = 0j
    first.append(1j)
    assert complex_roots(Polynomial(poly.coeffs)) == want
    assert len(evaluations) == swept
    # a run that fails is not remembered
    for _ in range(2):
        swept = len(evaluations)
        with pytest.raises(ArithmeticError):
            complex_roots(monomial_poly((200, 1), (0, -(10**300))))
        assert len(evaluations) > swept


@pytest.mark.parametrize("poly", [quilt_char(), count_char(), greedy_aux_char()], ids=["quilt", "count", "aux"])
@pytest.mark.parametrize("tol", [0.5, 0.1, 1e-3])
def test_coarse_tolerance_still_converges_the_root(poly, tol):
    # however wide the bracket, the double is polished to the root, not its midpoint
    lo, hi = dominant_root_bracket(poly, Fraction(1, 10**30))
    mid = float((lo + hi) / 2)
    assert abs(dominant_root(poly, tol).dominant_root - mid) <= 4 * math.ulp(mid)


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("b", [1, 2, 3])
@pytest.mark.parametrize("tol", [0.5, 0.1, 1e-3])
def test_coarse_tolerance_still_converges_the_sb_root(s, b, tol):
    # the (s,b) report polishes the bin-level root too, not its bracket's midpoint
    params = SBParams(s, b)
    lo, hi = dominant_root_bracket(generacci_aux(params), Fraction(1, 10**30))
    want = float((lo + hi) / 2) ** (1 / b)
    assert abs(generacci_char_analysis(params, tol).dominant_root - want) <= 4 * math.ulp(want)


@pytest.mark.parametrize("tol", [5e-324, 1e-60, 1e-12])
def test_error_bound_is_the_exact_width_rounded_up(tol):
    def check(bound, width):
        assert 0 < Fraction(bound) and Fraction(bound) >= width
        assert Fraction(math.nextafter(bound, 0)) < width  # the least such double

    for poly in (quilt_char(), count_char(), greedy_aux_char()):
        lo, hi = dominant_root_bracket(poly, tol)
        check(dominant_root(poly, tol).error_bound, hi - lo)
    for s in (1, 2, 3):
        for b in (1, 2, 3):
            params = SBParams(s, b)
            lo, hi = dominant_root_bracket(generacci_aux(params), Fraction(tol) / 2)
            check(generacci_char_analysis(params, tol).error_bound, (hi - lo) / b)


def _fraction_bisection(p, tol):
    """Reference bracket: the earlier bisection, Horner on ``Fraction`` at every step."""
    tol = Fraction(tol)
    scan_bound = 2 + max(abs(c) for c in p.coeffs[:-1]) // abs(p.coeffs[-1])

    def sign_at(x):
        value = p(x)
        return (value > 0) - (value < 0)

    lo = Fraction(1)
    s_lo = sign_at(lo)
    if s_lo == 0:
        lo = 1 + min(tol, Fraction(1, 1024))
        s_lo = sign_at(lo)
    x = Fraction(2)
    while sign_at(x) == s_lo:
        lo, x = x, x + 1
        assert x <= scan_bound + 1
    hi = x
    while hi - lo > tol:
        mid = (lo + hi) / 2
        s_mid = sign_at(mid)
        if s_mid == 0:
            return mid - tol / 2, mid + tol / 2
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


# 2x - 3 (a midpoint is the root), x^2 - 4x + 3 (p(1) = 0 and the root is a
# scan endpoint), -x^3 + x + 1 (negative leading coefficient)
EDGE_POLYS = (
    monomial_poly((1, 2), (0, -3)),
    monomial_poly((2, 1), (1, -4), (0, 3)),
    monomial_poly((3, -1), (1, 1), (0, 1)),
)
FIXED_POLYS = (quilt_char(), count_char(), greedy_aux_char(), count_char_full(), *EDGE_POLYS)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.sampled_from(FIXED_POLYS),
        st.builds(SBParams, st.integers(1, 12), st.integers(1, 12)).map(generacci_aux),
    ),
    st.one_of(
        st.integers(1, 80).map(lambda k: float(f"1e-{k}")),
        st.integers(2, 10**40).map(lambda n: Fraction(1, n)),
    ),
)
def test_bracket_equals_fraction_bisection(p, tol):
    assert dominant_root_bracket(p, tol) == _fraction_bisection(p, tol)


@st.composite
def grid_root_polys(draw):
    """2^j x - c or (2^j x - c)(x^2 + 1): the one root c / 2^j in (1, B] is a
    point of the bisection grid from level j on, and an integer c / 2^j is the
    scan's end point H."""
    j = draw(st.integers(0, 100))
    whole = draw(st.integers(1, 20))
    frac = draw(st.one_of(st.just(0), st.integers(0, 2**j - 1)))
    c = max(whole * 2**j + frac, 2**j + 1)
    if draw(st.booleans()):
        return monomial_poly((1, 2**j), (0, -c))
    return monomial_poly((3, 2**j), (2, -c), (1, 2**j), (0, -c))


@settings(max_examples=150, deadline=None)
@given(
    grid_root_polys(),
    st.one_of(
        st.integers(1, 80).map(lambda k: float(f"1e-{k}")),
        st.integers(2, 10**40).map(lambda n: Fraction(1, n)),
        st.integers(0, 300).map(lambda m: Fraction(1, 2**m)),
    ),
)
def test_grid_point_roots_equal_fraction_bisection(p, tol):
    # the midpoint-hit (root -/+ tol/2) and root-at-H branches
    assert dominant_root_bracket(p, tol) == _fraction_bisection(p, tol)


class TestBracketEdges:
    @pytest.mark.parametrize("tol", [Fraction(1e-4), Fraction(1, 10**30)])
    def test_midpoint_is_the_root(self, tol):
        assert dominant_root_bracket(EDGE_POLYS[0], tol) == (Fraction(3, 2) - tol / 2, Fraction(3, 2) + tol / 2)

    def test_root_at_one_and_at_scan_endpoint(self):
        # the scan reaches 3 = the root; bisection keeps it as hi, so the
        # width is the first power of two at or below tol
        p = EDGE_POLYS[1]
        assert dominant_root_bracket(p, Fraction(1, 10**30)) == (3 - Fraction(1, 2**100), Fraction(3))
        assert dominant_root_bracket(p, 1e-12) == (3 - Fraction(1, 2**40), Fraction(3))

    def test_root_at_one_with_non_dyadic_tol(self):
        # count_char_full(1) = 0, so bisection starts from [1 + tol, 2]
        eps = Fraction(1, 10**30)
        p = count_char_full()
        lo, hi = dominant_root_bracket(p, eps)
        width = (1 - eps) / 2**100
        assert hi - lo == width
        assert ((lo - 1 - eps) / width).denominator == 1
        assert p(lo) < 0 < p(hi)
        c_lo, c_hi = dominant_root_bracket(count_char(), eps)
        assert max(lo, c_lo) < min(hi, c_hi)


# SHA-256 of repr of the brackets at GOLDEN_TOLS, pinned from the Fraction
# bisection so that the integer bisection stays bit-identical to it.  Equal
# digests are expected: greedy_aux is aux_4_1, and it is the quilt cubic times
# x^2 - x + 1 > 0, so all three bisect [1, 2] with the same signs; aux_1_2
# and aux_2_4 both vanish at the scan endpoint 2.
GOLDEN_TOLS = (1e-4, 1e-12, 1e-30, 1e-60, Fraction(1, 10**30))
GOLDEN_BRACKETS = {
    "quilt": (quilt_char(), "8d0c3e91f8c5d80154a2e29dc98ff1823ab597590b7c53890668b533a8480c20"),
    "count": (count_char(), "1b002f4973fe65f27b10dc42850d5d29e33bf7d4ab08be4367fa6f8fbb3ea4e6"),
    "greedy_aux": (greedy_aux_char(), "8d0c3e91f8c5d80154a2e29dc98ff1823ab597590b7c53890668b533a8480c20"),
    "count_full": (count_char_full(), "ee702c00aee94d5f07b872e4f563e6cecbcf72c0018c0ca7ed2103a9f47b4b13"),
    "aux_1_1": (generacci_aux(SBParams(1, 1)), "4aa4644ade3de86324aabeba8ce04b4f16f62e6b5773821ad123d281dc9f1319"),
    "aux_1_2": (generacci_aux(SBParams(1, 2)), "b5c44e25d73ecbba04d0892abff840355dd0a13c20c7a346fa38b69a7bb54fe5"),
    "aux_1_3": (generacci_aux(SBParams(1, 3)), "dee6f33ea05b715c7dc811b3190d79af83f1cad773382eef2718b52737164bfe"),
    "aux_1_4": (generacci_aux(SBParams(1, 4)), "bd4771195de401734ffee7e128a17862230b8bcd458c9822b967a6239f98b57f"),
    "aux_2_1": (generacci_aux(SBParams(2, 1)), "5b32f93e6798a3c3c0cff38c1770f2e8e128f8390a5be5cf47c37792efbe9c3c"),
    "aux_2_2": (generacci_aux(SBParams(2, 2)), "8c455d6a1d17fe15314ce8c1272c7a03652aa47bd902722bc09489fb12a317eb"),
    "aux_2_3": (generacci_aux(SBParams(2, 3)), "89568f820ee1b5eef9e3c684839378fee25df886d7e04486b3d9cca9ece06934"),
    "aux_2_4": (generacci_aux(SBParams(2, 4)), "b5c44e25d73ecbba04d0892abff840355dd0a13c20c7a346fa38b69a7bb54fe5"),
    "aux_3_1": (generacci_aux(SBParams(3, 1)), "f0d3d599e39a3ea685771c52396132f2faa8ef05fa5d84a0e2e126fec197f549"),
    "aux_3_2": (generacci_aux(SBParams(3, 2)), "30985d836655d284c4af138d0ad19deb86c86a3fd66390a47d26b8842f71068f"),
    "aux_3_3": (generacci_aux(SBParams(3, 3)), "da82200bcce756c45b66540710996a5f2fcd1bb7fb69be1b02de5a278680276e"),
    "aux_3_4": (generacci_aux(SBParams(3, 4)), "92cb4ca863ed7dee993c696f2353ec8e78330ba61e2c01eec2fa95c6243cb62d"),
    "aux_4_1": (generacci_aux(SBParams(4, 1)), "8d0c3e91f8c5d80154a2e29dc98ff1823ab597590b7c53890668b533a8480c20"),
    "aux_4_2": (generacci_aux(SBParams(4, 2)), "aefe36a2b70e840ffa434a9e2d2f62ba4d35b86ad2126959f307c881d922a104"),
    "aux_4_3": (generacci_aux(SBParams(4, 3)), "b2245c47154965c879763e241b234c4fcd87c9e09b123eba9243dc03db3f5566"),
    "aux_4_4": (generacci_aux(SBParams(4, 4)), "7b3b4b07cd1ee72db8dbd0ef3f297c975604bd23d8c7380a90e11e309e447b11"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BRACKETS))
def test_golden_brackets(name):
    p, digest = GOLDEN_BRACKETS[name]
    brackets = [dominant_root_bracket(p, tol) for tol in GOLDEN_TOLS]
    assert hashlib.sha256(repr(brackets).encode()).hexdigest() == digest


# SHA-256 of repr of the bracket of generacci_aux(s, 1) at the smallest
# double, pinned from the bisection that spent one exact evaluation per bit
# (about 1075 of them, 30 s at s = 255).
GOLDEN_SUBNORMAL_BRACKETS = {
    60: "b6c93086dcc4ff4bfdbd5083a7ea25c66131375e526625b880c4b23bbff60aeb",
    120: "5c702af67930c2677a8fb698ea209f97f96cd28467dc22b8f6a1b9dc7af20780",
    255: "77040f123bed3cf7802da8e6d7eeb275b4d231f9982324e1aa17e4ceee86d544",
}


@pytest.mark.parametrize("s", sorted(GOLDEN_SUBNORMAL_BRACKETS))
def test_golden_subnormal_tol_brackets(s):
    bracket = dominant_root_bracket(generacci_aux(SBParams(s, 1)), 5e-324)
    assert hashlib.sha256(repr(bracket).encode()).hexdigest() == GOLDEN_SUBNORMAL_BRACKETS[s]


class TestGeneracciAnalysis:
    def test_fibonacci_case(self):
        rep = generacci_char_analysis(SBParams(1, 1), 1e-10)
        assert rep.dominant_root == pytest.approx(GOLDEN, abs=1e-10)

    def test_kentucky_case(self):
        # y^2 - y - 2 = (y - 2)(y + 1), so the growth rate is sqrt(2)
        rep = generacci_char_analysis(SBParams(1, 2), 1e-10)
        assert rep.dominant_root == pytest.approx(math.sqrt(2), abs=1e-10)

    def test_narayana_case(self):
        rep = generacci_char_analysis(SBParams(2, 1), 1e-10)
        assert rep.dominant_root == pytest.approx(1.46557, abs=5e-6)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            generacci_char_analysis(SBParams(1, 1), 0)

    def test_square_free_and_dominant_for_small_params(self):
        for s in range(1, 6):
            for b in range(1, 6):
                params = SBParams(s, b)
                aux = generacci_aux(params)
                # exactly one positive root by Descartes (one sign change)
                signs = [c for c in aux.coeffs if c]
                changes = sum(1 for x, y in zip(signs, signs[1:]) if x * y < 0)
                assert changes == 1
                # square-free, exactly (resultant of q and q' nonzero)
                assert resultant(aux, aux.derivative()) != 0
                rep = generacci_char_analysis(params, 1e-10)
                assert rep.dominant_root > 1
                assert rep.secondary_modulus < rep.dominant_root

    def test_full_char_consistent_with_aux(self):
        # the full polynomial's dominant root equals the aux root^(1/b),
        # including the degree-30 case
        for s, b in [(1, 2), (2, 2), (3, 1), (5, 5)]:
            params = SBParams(s, b)
            full = dominant_root(generacci_char(params), 1e-10)
            via_aux = generacci_char_analysis(params, 1e-10)
            assert full.dominant_root == pytest.approx(via_aux.dominant_root, abs=1e-9)

    def test_error_bound_holds_for_the_returned_root(self):
        # the full polynomial changes sign across root +- (bound + 2 ulp);
        # a float cannot come nearer the root than its own spacing
        for s in range(1, 5):
            for b in range(1, 5):
                full = generacci_char(SBParams(s, b))
                for tol in (1e-4, 1e-9, 1e-13, 1e-30, 1e-60):
                    rep = generacci_char_analysis(SBParams(s, b), tol)
                    slack = Fraction(rep.error_bound) + 2 * Fraction(math.ulp(rep.dominant_root))
                    root = Fraction(rep.dominant_root)
                    assert full(root - slack) < 0 < full(root + slack), (s, b, tol)

    def test_analysis_refinement_is_monotone(self):
        tol = 1e-4
        prev = generacci_char_analysis(SBParams(2, 3), tol)
        for _ in range(15):
            tol /= 2
            cur = generacci_char_analysis(SBParams(2, 3), tol)
            assert abs(cur.dominant_root - prev.dominant_root) <= prev.error_bound
            prev = cur


def narayana_root_by_bisection():
    # independent derivation for the (2,1) example: y^3 - y^2 - 1 on (1, 2)
    lo, hi = 1.0, 2.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if mid**3 - mid**2 - 1 > 0:
            hi = mid
        else:
            lo = mid
    return lo


def test_narayana_oracle_value():
    assert narayana_root_by_bisection() == pytest.approx(1.46557, abs=5e-6)
    rep = generacci_char_analysis(SBParams(2, 1), 1e-12)
    assert rep.dominant_root == pytest.approx(narayana_root_by_bisection(), abs=1e-9)


class TestLeadingConstantFit:
    def test_quilt_alpha(self):
        from genquilt.quilt import quilt_terms

        lam = dominant_root(quilt_char(), 1e-12).dominant_root
        fit = fit_leading_constant(quilt_terms(60).terms(60), lam, 1)
        assert fit.value == pytest.approx(1.26724, abs=1e-4)
        assert fit.residual < 1e-6

    def test_count_beta_positive(self):
        from genquilt.quilt_count import count_tables

        r1 = dominant_root(count_char(), 1e-12).dominant_root
        terms = count_tables(100).d[1:]
        fit = fit_leading_constant(terms, r1, 1)
        assert fit.value > 0
        assert fit.residual < 1e-4

    def test_matches_exact_rationals_rounded_once(self):
        params = SBParams(1, 2)
        lam = generacci_char_analysis(params, 1e-12).dominant_root
        terms = generate(params, 90).terms(90)
        ratios = [Fraction(terms[n - 1]) / Fraction(lam) ** n for n in range(90, 67, -2)]
        fit = fit_leading_constant(terms, lam, stride=2)
        assert fit.value == float(ratios[0])
        assert fit.residual == float(max(ratios) - min(ratios))

    def test_lambda_must_exceed_one(self):
        with pytest.raises(ValueError):
            fit_leading_constant([1] * 40, 1.0, 1)

    def test_too_few_terms(self):
        with pytest.raises(ValueError):
            fit_leading_constant([1, 2, 3], 1.5, 1)

    def test_per_residue_stride(self):
        # width-2 bins: the constant depends on n mod 2, so fitting on one
        # residue class must converge (spread shrinking with length)
        params = SBParams(1, 2)
        lam = generacci_char_analysis(params, 1e-12).dominant_root
        terms = generate(params, 80).terms(80)
        fit = fit_leading_constant(terms, lam, stride=2)
        assert fit.value > 0
        assert fit.residual < 1e-8
