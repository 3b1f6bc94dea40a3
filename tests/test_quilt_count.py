"""Decomposition counting: tables, per-integer counts, exact averages."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genquilt.errors import BudgetExceededError
from genquilt.numerics import count_char, dominant_root
from genquilt.oracle import count_decompositions_dfs, enumerate_legal
from genquilt.quilt import quilt_terms
from genquilt.quilt_count import (
    average_decompositions,
    count_decompositions,
    count_tables,
)

# d_n, c_n, b_n for n = 1..13, derived by exhaustive enumeration (the same
# values the oracle reproduces live in test_oracle_equivalence below).
TABLE_DCB = [
    (1, 2, 1, 0),
    (2, 3, 1, 0),
    (3, 4, 1, 0),
    (4, 6, 2, 1),
    (5, 8, 2, 1),
    (6, 11, 3, 1),
    (7, 15, 4, 1),
    (8, 21, 6, 2),
    (9, 30, 9, 3),
    (10, 42, 12, 4),
    (11, 59, 17, 6),
    (12, 82, 23, 8),
    (13, 114, 32, 11),
]


class TestCountTables:
    def test_thirteen_rows(self):
        t = count_tables(13)
        for n, d, c, b in TABLE_DCB:
            assert (t.d[n], t.c[n], t.b[n]) == (d, c, b), n

    def test_single_row(self):
        t = count_tables(1)
        assert (t.d[1], t.c[1], t.b[1]) == (2, 1, 0)

    def test_pure_d_recurrence_value(self):
        t = count_tables(10)
        assert t.d[10] == t.d[9] + t.d[8] - t.d[7] + t.d[5] - t.d[1] == 42

    def test_pure_d_recurrence_range(self):
        t = count_tables(200)
        for n in range(10, 201):
            assert t.d[n] == t.d[n - 1] + t.d[n - 2] - t.d[n - 3] + t.d[n - 5] - t.d[n - 9]

    def test_triple_recurrences(self):
        t = count_tables(120)
        for n in range(7, 121):
            assert t.d[n] == t.c[n] + t.d[n - 1]
            assert t.c[n] == t.d[n - 5] + t.c[n - 2] - t.b[n - 2]
            assert t.b[n] == t.d[n - 7]

    def test_alternative_c_relation(self):
        # c_n = d_{n-5} + b_n
        t = count_tables(120)
        for n in range(7, 121):
            assert t.c[n] == t.d[n - 5] + t.b[n]

    def test_oracle_equivalence_to_18(self):
        t = count_tables(18)
        for n in range(1, 19):
            subsets = enumerate_legal("quilt", n).subsets
            assert t.d[n] == len(subsets)
            assert t.c[n] == sum(1 for s in subsets if n in s)
            assert t.b[n] == sum(1 for s in subsets if n in s and n - 2 in s)

    def test_ratio_approaches_dominant_root(self):
        t = count_tables(60)
        r1 = dominant_root(count_char(), 1e-12).dominant_root
        assert abs(t.d[60] / t.d[59] - r1) < 1e-6

    def test_bad_n(self):
        with pytest.raises(ValueError):
            count_tables(0)


class TestCountDecompositions:
    def test_106(self):
        assert count_decompositions(106) == 3

    def test_zero_counts_the_empty_decomposition(self):
        assert count_decompositions(0) == 1

    def test_five_has_one(self):
        # 5 = q_5 only: 4+1 and 3+2 pair at forbidden differences
        assert count_decompositions(5) == 1

    def test_matches_enumeration_by_value(self):
        by_value = enumerate_legal("quilt", 16).by_value
        # subsets over indices <= 16 cover every m < q_17 = 151 completely
        for m in range(0, 151):
            assert count_decompositions(m) == by_value.get(m, 0), m

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_matches_oracle_dfs(self, m):
        assert count_decompositions(m) == count_decompositions_dfs(m)

    @pytest.mark.parametrize("n", [900, 1200])
    def test_large_quilt_term_has_one_decomposition(self, n):
        # Every quilt term decomposes only as itself.  q_900 has 110 digits
        # and q_1200 has 146, far past what a depth-first walk finishes.
        assert count_decompositions(quilt_terms(n).term(n)) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            count_decompositions(-1)


class TestAverages:
    def test_n1_exact(self):
        rep = average_decompositions(1)
        assert rep.total == 2
        assert rep.average == Fraction(1)

    def test_n5_exact(self):
        # every m in [0, 7) has exactly one decomposition
        rep = average_decompositions(5)
        assert rep.total == 7
        assert rep.average == Fraction(1)

    def test_total_agrees_with_per_integer_counting(self):
        cache = quilt_terms(25)
        for n in range(1, 19):
            rep = average_decompositions(n)
            direct = sum(count_decompositions_dfs(m) for m in range(cache.term(n + 1)))
            assert rep.total == direct, n

    def test_sandwich_below_index_count(self):
        from genquilt.quilt_count import count_tables

        t = count_tables(25)
        cache = quilt_terms(30)
        for n in range(1, 26):
            rep = average_decompositions(n)
            assert rep.average <= Fraction(t.d[n], cache.term(n + 1)), n

    def test_exponent_estimate_converges(self):
        from genquilt.numerics import quilt_char

        r1 = dominant_root(count_char(), 1e-12).dominant_root
        lam = dominant_root(quilt_char(), 1e-12).dominant_root
        target = r1 / lam
        for n in range(20, 31):
            rep = average_decompositions(n)
            assert rep.exponent_estimate == pytest.approx(target, abs=0.02), n

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            average_decompositions(31)

    def test_average_grows(self):
        values = [average_decompositions(n).average for n in (5, 10, 15, 20, 25)]
        assert all(a < b for a, b in zip(values, values[1:]))
