"""Quilt sequence: seed values, recurrences, legality, Binet rounding."""

from itertools import combinations

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genquilt.quilt import is_fq_legal, quilt_terms

# Start of the sequence as forced by the definition (cross-derived from the
# definitional scan in test_oracle).
FIRST_21 = [1, 2, 3, 4, 5, 7, 9, 12, 16, 21, 28, 37, 49, 65, 86, 114, 151, 200, 265, 351, 465]


def literal_fq_rule(indices: list[int]) -> bool:
    """The quilt rule as stated, independent of the library: every pair differs
    by something outside {0, 1, 3, 4}, and 1 and 3 are not both present."""
    pairs_ok = all(abs(a - b) not in (0, 1, 3, 4) for a, b in combinations(indices, 2))
    return pairs_ok and not (1 in indices and 3 in indices)


def test_first_21_terms():
    assert quilt_terms(21).terms(21) == FIRST_21


def test_count_one():
    assert quilt_terms(1).terms(1) == [1]


def test_terms_rejects_bad_count():
    with pytest.raises(ValueError):
        quilt_terms(0)


def test_strictly_increasing():
    t = quilt_terms(200).terms(200)
    assert all(a < b for a, b in zip(t, t[1:]))


def test_both_recurrences_exactly():
    cache = quilt_terms(505)
    q = cache.term
    for n in range(6, 500):
        assert q(n + 1) == q(n) + q(n - 4)
    for n in range(5, 500):
        assert q(n + 1) == q(n - 1) + q(n - 2)


def test_partial_sum_identity():
    cache = quilt_terms(505)
    assert sum(cache.terms(1)) == cache.term(6) - 6 == 1
    assert sum(cache.terms(5)) == cache.term(10) - 6 == 15
    assert sum(cache.terms(16)) == cache.term(21) - 6 == 459
    for n in range(1, 501):
        assert sum(cache.terms(n)) == cache.term(n + 5) - 6


class TestLegality:
    def test_known_legal_triple(self):
        # one of the three decompositions of 106
        assert is_fq_legal([15, 9, 4])

    def test_one_and_three_forbidden(self):
        assert not is_fq_legal([3, 1])

    def test_difference_four_forbidden(self):
        assert not is_fq_legal([5, 1])

    def test_singletons_and_empty(self):
        assert is_fq_legal([])
        assert is_fq_legal([7])
        assert is_fq_legal([1])

    def test_duplicates_rejected(self):
        assert not is_fq_legal([4, 4])

    def test_difference_two_allowed(self):
        assert is_fq_legal([5, 3])
        assert is_fq_legal([9, 7])

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            is_fq_legal([0, 2])

    def test_bad_index_raises_before_illegal_pair(self):
        with pytest.raises(ValueError):
            is_fq_legal([5, 4, 0])

    def test_subset_of_legal_is_legal(self):
        # legality is monotone under removal
        base = [20, 15, 9, 4]
        assert is_fq_legal(base)
        for r in range(len(base) + 1):
            for sub in combinations(base, r):
                assert is_fq_legal(sub)

    @settings(max_examples=400, deadline=None)
    # half the draws come from 1..5, where the {1, 3} exception lives
    @given(st.lists(st.integers(1, 5) | st.integers(1, 40), max_size=10))
    def test_matches_literal_rule(self, indices):
        assert is_fq_legal(indices) == literal_fq_rule(indices)

    def test_every_subset_up_to_fourteen_matches_literal_rule(self):
        for bits in range(1 << 14):
            sub = [i for i in range(1, 15) if bits >> (i - 1) & 1]
            assert is_fq_legal(sub) == literal_fq_rule(sub), sub

    def test_duplicates_in_every_small_subset(self):
        for bits in range(1, 1 << 10):
            sub = [i for i in range(1, 11) if bits >> (i - 1) & 1]
            for i in sub:
                assert not is_fq_legal(sub + [i]), (sub, i)

    @settings(max_examples=400, deadline=None)
    # gaps of 0 make duplicates; gaps past 4 must clear the window entirely
    @given(
        st.integers(1, 5),
        st.lists(st.integers(0, 6) | st.integers(0, 10**4), max_size=8),
        st.randoms(use_true_random=False),
    )
    def test_wide_gaps_match_literal_rule(self, start, gaps, rng):
        indices = [start]
        for gap in gaps:
            indices.append(indices[-1] + gap)
        rng.shuffle(indices)
        assert is_fq_legal(indices) == literal_fq_rule(indices)

    def test_permutation_insensitive(self):
        assert is_fq_legal([4, 9, 15]) == is_fq_legal([15, 9, 4])
        assert is_fq_legal([1, 5]) == is_fq_legal([5, 1])


def test_five_spaced_sums_stay_below_next_term():
    cache = quilt_terms(210)
    q = cache.term
    for ell in range(1, 201):
        total = 0
        k = 0
        while ell - 5 * k >= 1:
            total += q(ell - 5 * k)
            assert total < q(ell + 1), (ell, k)
            k += 1


def test_shift_identities():
    cache = quilt_terms(510)
    q = cache.term
    for n in range(7, 501):
        assert 2 * q(n) == q(n + 2) + q(n - 5)
    for n in range(8, 501):
        assert q(n) + q(n - 2) == q(n + 1) + q(n - 5)
    for n in range(10, 501):
        assert q(n) + q(n - 3) == q(n + 1) + q(n - 8)


def test_terms_are_nearest_integer_to_dominant_growth():
    """q_n rounds from its dominant-root expansion for every cached n >= 10.

    The three expansion coefficients are solved exactly from q_3, q_4, q_5 at
    high precision, and the subdominant contribution is bounded explicitly,
    so the nearest-integer check is airtight at working precision.
    """
    n_max = 300
    cache = quilt_terms(n_max)
    with mp.workdps(int(n_max * 0.125) + 40):
        roots = mp.polyroots([1, 0, -1, -1], extraprec=100)
        vander = mp.matrix([[r**n for r in roots] for n in (3, 4, 5)])
        coef = mp.lu_solve(vander, mp.matrix([3, 4, 5]))
        pairs = sorted(zip(roots, coef), key=lambda rc: -abs(rc[0]))
        lam1, alpha1 = pairs[0]
        assert mp.im(lam1) == 0 and abs(mp.im(pairs[0][1])) < mp.mpf(10) ** -20
        alpha2 = pairs[1][1]
        for n in range(10, n_max + 1):
            main = mp.re(alpha1) * mp.re(lam1) ** n
            tail_bound = 2 * abs(alpha2) * mp.mpf("0.869") ** n
            assert tail_bound < mp.mpf("0.5")
            assert abs(main - cache.term(n)) <= tail_bound


def test_cache_value_extension():
    cache = quilt_terms(1)
    cache.ensure_value(10**6)
    assert cache.term(len(cache)) > 10**6
    assert cache.index_of_largest_leq(106) == 15  # q_15 = 86 <= 106 < q_16 = 114
