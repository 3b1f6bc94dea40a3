"""(s,b) sequences: seeds, recurrences, legality, greedy decomposition."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genquilt.generacci import (
    Decomposition,
    SBParams,
    bin_of,
    decompose,
    generate,
    is_legal_sb,
    sb_extend_ok,
)
from genquilt.numerics import generacci_char_analysis

# Frozen from the definitional scan (see test_oracle for the live cross-check).
KNOWN_PREFIXES = {
    (1, 1): [1, 2, 3, 5, 8, 13],          # Fibonacci, normalized
    (1, 2): [1, 2, 3, 4, 5, 8, 11, 16, 21, 32],  # Kentucky
    (2, 1): [1, 2, 3, 4, 6, 9, 13],       # Narayana's cows
}


@pytest.mark.parametrize("sb,expected", sorted(KNOWN_PREFIXES.items()))
def test_known_prefixes(sb, expected):
    params = SBParams(*sb)
    assert generate(params, len(expected)).terms(len(expected)) == expected


def test_params_validation():
    with pytest.raises(ValueError):
        SBParams(0, 1)
    with pytest.raises(ValueError):
        SBParams(1, 0)
    with pytest.raises(ValueError):
        generate(SBParams(1, 1), 0)


def test_initial_segment_is_identity():
    for s in range(1, 4):
        for b in range(1, 4):
            params = SBParams(s, b)
            k = params.seed_count
            assert generate(params, k).terms(k) == list(range(1, k + 1))


def test_recurrence_identity():
    for s in range(1, 4):
        for b in range(1, 4):
            params = SBParams(s, b)
            cache = generate(params, 200)
            a = cache.term
            depth = (s + 1) * b
            for n in range(params.seed_count + 1, 201):
                assert a(n) == a(n - b) + b * a(n - depth)


def test_f_recurrence_identity():
    # a_n = a_{n-1} + a_{n-1-f(n-1)} with f(kb+j) = sb + j - 1, j in 1..b
    for s in range(1, 4):
        for b in range(1, 4):
            params = SBParams(s, b)
            cache = generate(params, 200)
            a = cache.term
            for n in range(params.seed_count + 1, 201):
                j = (n - 2) % b + 1
                f = s * b + j - 1
                assert a(n) == a(n - 1) + a(n - 1 - f), (s, b, n)


def test_in_bin_relation():
    # a_{j+nb} = a_{1+nb} + (j-1) a_{1+(n-s)b} for 1 <= j <= b+1
    for s in range(1, 4):
        for b in range(1, 4):
            params = SBParams(s, b)
            cache = generate(params, 200 + b + 1)
            a = cache.term
            for n in range(s, 200 // b):
                for j in range(1, b + 2):
                    assert a(j + n * b) == a(1 + n * b) + (j - 1) * a(1 + (n - s) * b)


class TestBins:
    def test_width_two(self):
        assert bin_of(SBParams(1, 2), 5) == 3

    def test_width_one(self):
        assert bin_of(SBParams(1, 1), 7) == 7

    def test_boundary(self):
        assert bin_of(SBParams(1, 3), 3) == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            bin_of(SBParams(1, 1), 0)


class TestLegality:
    def test_gap_beyond_s_is_legal(self):
        # indices 6 and 2 sit in bins 3 and 1; gap 2 > s = 1
        assert is_legal_sb(SBParams(1, 2), [6, 2])

    def test_same_bin_is_illegal(self):
        assert not is_legal_sb(SBParams(1, 2), [6, 5])

    def test_singleton_and_empty(self):
        for s in range(1, 4):
            for b in range(1, 4):
                assert is_legal_sb(SBParams(s, b), [11])
                assert is_legal_sb(SBParams(s, b), [])

    def test_gap_of_exactly_s_is_illegal(self):
        # bins 1 and 2 with s = 1: only 0 bins between them
        assert not is_legal_sb(SBParams(1, 1), [2, 1])
        # bins 1 and 3 with s = 2
        assert not is_legal_sb(SBParams(2, 1), [3, 1])

    def test_duplicates_rejected(self):
        assert not is_legal_sb(SBParams(1, 1), [3, 3])

    def test_extend_agrees_with_full_predicate(self):
        # incremental check vs the full predicate, over legal prefixes
        from itertools import combinations

        for s in (1, 2):
            for b in (1, 2):
                params = SBParams(s, b)
                for r in range(0, 4):
                    for combo in combinations(range(1, 10), r):
                        desc = sorted(combo, reverse=True)
                        if not is_legal_sb(params, desc):
                            continue
                        for cand in range(1, (desc[-1] if desc else 10)):
                            expected = is_legal_sb(params, desc + [cand])
                            assert sb_extend_ok(params, cand, desc) == expected


class TestDecompose:
    def test_kentucky_ten(self):
        cache = generate(SBParams(1, 2), 10)
        dec = decompose(cache, 10)
        assert dec.indices == (6, 2)
        assert dec.values == (8, 2)

    def test_exact_term(self):
        for sb in KNOWN_PREFIXES:
            cache = generate(SBParams(*sb), 12)
            for k in (1, 5, 9):
                dec = decompose(cache, cache.term(k))
                assert dec.indices == (k,)

    def test_zeckendorf_ten(self):
        dec = decompose(generate(SBParams(1, 1), 10), 10)
        assert dec.values == (8, 2)

    def test_zero_is_empty(self):
        dec = decompose(generate(SBParams(1, 2), 5), 0)
        assert dec.indices == ()
        assert dec.total == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            decompose(generate(SBParams(1, 1), 5), -1)

    def test_result_is_legal_and_sums(self):
        for sb in KNOWN_PREFIXES:
            params = SBParams(*sb)
            cache = generate(params, 10)
            for m in range(0, 400):
                dec = decompose(cache, m)
                assert dec.total == m
                assert is_legal_sb(params, dec.indices)

    def test_huge_value(self):
        params = SBParams(2, 3)
        cache = generate(params, 1)
        m = 10**30
        dec = decompose(cache, m)
        assert dec.total == m
        assert is_legal_sb(params, dec.indices)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(min_value=0, max_value=10**40))
    def test_legal_and_sums_at_large_m(self, s, b, m):
        params = SBParams(s, b)
        dec = decompose(generate(params, 1), m)
        assert dec.total == m
        assert is_legal_sb(params, dec.indices)


def test_decomposition_type_validation():
    with pytest.raises(ValueError):
        Decomposition((2, 5), (2, 8))  # not decreasing
    with pytest.raises(ValueError):
        Decomposition((5,), (8, 2))  # misaligned


def test_growth_ratio_approaches_dominant_root_power():
    # a_{n+b}/a_n settles on lambda1^b; at n = 40b the three named systems
    # are already within 1e-6, and the gap keeps shrinking for the rest of
    # {1,2,3}^2 (at (3,2) and (3,3) the 1e-6 level arrives nearer n = 55b).
    for s, b in [(1, 1), (1, 2), (2, 1)]:
        params = SBParams(s, b)
        lam_b = generacci_char_analysis(params).dominant_root ** b
        cache = generate(params, 41 * b)
        n = 40 * b
        assert abs(Fraction(cache.term(n + b), cache.term(n)) - Fraction(lam_b)) < 1e-6
    for s in range(1, 4):
        for b in range(1, 4):
            params = SBParams(s, b)
            lam_b = generacci_char_analysis(params).dominant_root ** b
            cache = generate(params, 61 * b)
            gaps = [
                abs(float(Fraction(cache.term(n + b), cache.term(n))) - lam_b)
                for n in (30 * b, 45 * b, 60 * b)
            ]
            assert gaps[2] <= gaps[0]  # equality once both sit at float resolution
            assert gaps[2] < 1e-6
