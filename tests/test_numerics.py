"""Root isolation, polynomial identities, and leading-constant fits."""

import math
from fractions import Fraction

import mpmath as mp
import pytest

from genquilt.generacci import SBParams, generate
from genquilt.numerics import (
    Polynomial,
    aux_is_square_free,
    complex_roots,
    count_char,
    count_char_full,
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


class TestPolynomial:
    def test_leading_zero_rejected(self):
        with pytest.raises(ValueError):
            Polynomial((1, 0))

    def test_eval_exact_on_fractions(self):
        p = quilt_char()
        x = Fraction(4, 3)
        assert p(x) == x**3 - x - 1

    def test_derivative(self):
        p = monomial_poly((3, 2), (1, -5))
        assert p.derivative().coeffs == (-5, 0, 6)

    def test_multiplication_exact(self):
        a = monomial_poly((2, 1), (0, -1))
        b = monomial_poly((1, 1), (0, 1))
        assert (a * b).coeffs == (-1, -1, 1, 1)


def test_count_polynomial_factorization():
    # the degree-9 count polynomial splits off (r-1)(r+1) exactly
    lin = monomial_poly((1, 1), (0, -1)) * monomial_poly((1, 1), (0, 1))
    assert (lin * count_char()).coeffs == count_char_full().coeffs


def test_greedy_aux_factorization():
    # r^5 - r^4 - 1 = (r^3 - r - 1)(r^2 - r + 1) exactly
    quad = monomial_poly((2, 1), (1, -1), (0, 1))
    assert (quilt_char() * quad).coeffs == greedy_aux_char().coeffs


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
                # square-free, exactly (resultant of q and q' nonzero), and
                # the two-point check agrees with the resultant
                assert resultant(aux, aux.derivative()) != 0
                assert aux_is_square_free(params)
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
