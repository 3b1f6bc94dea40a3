"""Summand-count distributions and normality checks."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genquilt import BudgetExceededError
from genquilt.generacci import SBParams, decompose, generate
from genquilt.stats import (
    gaussian_fit,
    ks_normal_distance,
    summand_distribution,
)

PARAM_SETS = [SBParams(1, 1), SBParams(1, 2), SBParams(2, 1)]


class TestDistribution:
    def test_fibonacci_first_interval(self):
        # [0, a_2) = [0, 2): 0 has the empty decomposition, 1 is a term
        dist = summand_distribution(SBParams(1, 1), 1)
        assert dist.histogram == {0: 1, 1: 1}
        assert dist.mean == Fraction(1, 2)

    def test_kentucky_two_bins(self):
        # [0, a_5) = [0, 5): 1..4 are single terms, no legal pair fits
        dist = summand_distribution(SBParams(1, 2), 2)
        assert dist.histogram == {0: 1, 1: 4}

    def test_total_is_interval_length(self):
        for params in PARAM_SETS:
            for n in (1, 3, 7, 15):
                dist = summand_distribution(params, n)
                end = generate(params, params.b * n + 1).term(params.b * n + 1)
                assert dist.total == end

    def test_matches_per_integer_decomposition(self):
        # brute-force histogram over the actual interval, small n
        for params in PARAM_SETS + [SBParams(2, 2), SBParams(3, 3)]:
            n = 6
            cache = generate(params, params.b * n + 1)
            end = cache.term(params.b * n + 1)
            if end > 10**4:
                n = 4
                end = cache.term(params.b * n + 1)
            direct: dict[int, int] = {}
            for m in range(end):
                k = len(decompose(cache, m))
                direct[k] = direct.get(k, 0) + 1
            assert summand_distribution(params, n).histogram == direct, params

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_closed_form_matches_decompose_property(self, s, b, data):
        # the binomial histogram against greedy decomposition of every
        # integer in [0, a_{bn+1}), for intervals of at most about 3000
        params = SBParams(s, b)
        n_max = 1
        while generate(params, b * (n_max + 1) + 1).term(b * (n_max + 1) + 1) <= 3000:
            n_max += 1
        n = data.draw(st.integers(1, n_max), label="n")
        cache = generate(params, b * n + 1)
        direct = Counter(len(decompose(cache, m)) for m in range(cache.term(b * n + 1)))
        assert summand_distribution(params, n).histogram == direct

    def test_mean_variance_exact_types(self):
        dist = summand_distribution(SBParams(1, 2), 10)
        assert isinstance(dist.mean, Fraction)
        assert isinstance(dist.variance, Fraction)

    def test_mean_and_variance_nondecreasing(self):
        # variance has tiny dips below n = 7 (e.g. (2,1) drops from 2/9 to
        # 3/16 at n = 3); from there on both moments climb
        for params in PARAM_SETS:
            dists = [summand_distribution(params, n) for n in range(2, 26)]
            assert all(a.mean <= b.mean for a, b in zip(dists, dists[1:]))
            tail = dists[5:]
            assert all(a.variance <= b.variance for a, b in zip(tail, tail[1:]))

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            summand_distribution(SBParams(1, 1), 501)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            summand_distribution(SBParams(1, 1), 0)


class TestGaussianFit:
    def test_positive_slopes(self):
        for params in PARAM_SETS:
            fit = gaussian_fit(params, 10, 25)
            assert fit.a_hat > 0
            assert fit.c_hat > 0

    def test_range_too_small(self):
        with pytest.raises(ValueError):
            gaussian_fit(SBParams(1, 1), 10, 14)

    def test_linear_residual_under_one_percent(self):
        for params in PARAM_SETS:
            fit = gaussian_fit(params, 15, 25)
            for n in range(20, 26):
                dist = summand_distribution(params, n)
                assert abs(fit.a_hat * n + fit.b_hat - float(dist.mean)) / float(dist.mean) < 0.01
                assert abs(fit.c_hat * n + fit.d_hat - float(dist.variance)) / float(dist.variance) < 0.01

    def test_slope_stability_across_ranges(self):
        # the fitted growth rate barely moves when the window shifts
        for params in PARAM_SETS:
            early = gaussian_fit(params, 10, 20)
            late = gaussian_fit(params, 20, 30)
            assert late.a_hat == pytest.approx(early.a_hat, rel=0.02)

    def test_ks_below_threshold_and_shrinking(self):
        for params in PARAM_SETS:
            at25 = ks_normal_distance(summand_distribution(params, 25))
            at12 = ks_normal_distance(summand_distribution(params, 12))
            assert at25 < 0.05
            assert at25 < at12

    def test_fit_carries_ks_at_n_max(self):
        params = SBParams(1, 2)
        fit = gaussian_fit(params, 15, 25)
        assert fit.ks_distance == ks_normal_distance(summand_distribution(params, 25))


def test_zeckendorf_mean_slope_is_classical():
    # the (1,1) mean grows like n/(phi^2 + 1) = 0.27639...
    fit = gaussian_fit(SBParams(1, 1), 15, 30)
    assert fit.a_hat == pytest.approx(0.276393, abs=1e-4)
