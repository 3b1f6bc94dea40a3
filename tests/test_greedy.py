"""Greedy decompositions, success counts, Greedy-6, and the move system."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genquilt import oracle
from genquilt.errors import BudgetExceededError
from genquilt.greedy import (
    greedy6_decompose,
    greedy_decompose,
    greedy_failures,
    min_summands,
    normalize_to_greedy6,
    structure_conditions,
    success_ratio_limit,
    success_table,
)
from genquilt.oracle import min_summands_table
from genquilt.quilt import is_fq_legal, quilt_terms, shared_cache
from genquilt.rendering import percent_string

FAILURES_UNDER_200 = [6, 27, 34, 43, 55, 71, 92, 113, 120, 141, 148, 157, 178, 185, 194]

# h_n for n = 1..17 and the percentage renderings of h_n / (q_{n+1} - 1).
TABLE_H = [1, 2, 3, 4, 5, 7, 10, 14, 19, 25, 33, 44, 59, 79, 105, 139, 184]
TABLE_RHO_PERCENT = [
    "100.0000", "100.0000", "100.0000", "100.0000", "83.3333", "87.5000",
    "90.9091", "93.3333", "95.0000", "92.5926", "91.6667", "91.6667",
    "92.1875", "92.9412", "92.9204", "92.6667", "92.4623",
]


class TestPlainGreedy:
    def test_first_failure_is_six(self):
        out = greedy_decompose(6)
        assert out.decomposition.values == (5, 1)
        assert not out.legal

    def test_27(self):
        out = greedy_decompose(27)
        assert out.decomposition.values == (21, 5, 1)
        assert out.decomposition.indices == (10, 5, 1)
        assert not out.legal

    def test_106(self):
        out = greedy_decompose(106)
        assert out.decomposition.values == (86, 16, 4)
        assert out.legal

    def test_failure_set_under_200(self):
        assert greedy_failures(200) == FAILURES_UNDER_200

    def test_sums_and_decreasing_indices(self):
        for m in range(1, 2000):
            dec = greedy_decompose(m).decomposition
            assert dec.total == m
            assert all(a > b for a, b in zip(dec.indices, dec.indices[1:]))

    def test_remainder_bound(self):
        # after taking q_l (l >= 6, where q_{l+1} - q_l = q_{l-4}), what is
        # left is below q_{l-4}; l = 5 is the lone exception (m = 6 leaves 1)
        cache = shared_cache()
        for m in range(1, 10**5 + 1):
            ell = cache.index_of_largest_leq(m)
            if ell >= 6:
                assert m - cache.term(ell) < cache.term(ell - 4), m

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            greedy_decompose(0)


class TestSuccessTable:
    def test_table_h_values(self):
        table = success_table(17)
        assert table.h[1:] == TABLE_H

    def test_rho_rendering(self):
        table = success_table(17)
        assert [percent_string(r) for r in table.rho[1:]] == TABLE_RHO_PERCENT

    def test_rho_17(self):
        table = success_table(17)
        assert table.rho[17] == Fraction(184, 199)

    def test_rho_5(self):
        assert success_table(5).rho[5] == Fraction(5, 6)

    def test_h9(self):
        assert success_table(9).h[9] == 19

    def test_simulation_matches_recurrence(self):
        rec = success_table(22, "recurrence")
        sim = success_table(22, "simulation")
        assert rec.h == sim.h
        assert rec.rho == sim.rho

    def test_simulation_budget(self):
        with pytest.raises(BudgetExceededError):
            success_table(26, "simulation")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            success_table(5, "guess")

    def test_g_recurrence(self):
        # g_n = h_n + 1 satisfies g_n = g_{n-1} + g_{n-5} exactly
        table = success_table(200)
        g = [h + 1 for h in table.h]
        for n in range(6, 201):
            assert g[n] == g[n - 1] + g[n - 5]


class TestSuccessRatioLimit:
    def test_limit_value(self):
        assert success_ratio_limit(100) == pytest.approx(0.92627, abs=5e-5)

    def test_matches_table_17(self):
        assert float(success_table(17).rho[17]) == pytest.approx(0.924623, abs=1e-6)

    def test_cauchy_contraction(self):
        table = success_table(40)
        assert abs(table.rho[40] - table.rho[20]) < abs(table.rho[20] - table.rho[10])

    def test_requires_large_n(self):
        with pytest.raises(ValueError):
            success_ratio_limit(19)


class TestGreedy6:
    def test_six(self):
        dec = greedy6_decompose(6)
        assert dec.values == (4, 2)
        assert dec.indices == (4, 2)

    def test_27(self):
        dec = greedy6_decompose(27)
        assert dec.indices == (10, 4, 2)
        assert dec.values == (21, 4, 2)

    def test_exact_terms(self):
        cache = quilt_terms(30)
        for n in (1, 4, 11, 25):
            assert greedy6_decompose(cache.term(n)).indices == (n,)

    def test_always_legal_and_sums(self):
        for m in range(1, 5000):
            dec = greedy6_decompose(m)
            assert dec.total == m
            assert is_fq_legal(dec.indices), m

    def test_structure_exactly_one_condition(self):
        for m in range(1, 20000):
            cond1, cond2 = structure_conditions(greedy6_decompose(m))
            assert cond1 != cond2, m

    def test_huge_value(self):
        m = 10**21 - 1
        dec = greedy6_decompose(m)
        assert dec.total == m
        assert is_fq_legal(dec.indices)
        cond1, cond2 = structure_conditions(dec)
        assert cond1 != cond2

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=10**40))
    def test_normal_form_of_greedy_at_large_m(self, m):
        dec = greedy6_decompose(m)
        assert normalize_to_greedy6(greedy_decompose(m).decomposition.indices).final == dec
        assert dec.total == m
        assert is_fq_legal(dec.indices)
        cond1, cond2 = structure_conditions(dec)
        assert cond1 != cond2

    def test_structured_decomposition_reconstructs(self):
        # the converse: ANY index set matching one of the two shapes is the
        # greedy-6 decomposition of its own value; build such sets directly
        from genquilt.generacci import Decomposition

        cache = quilt_terms(60)
        rng = random.Random(3)
        for _ in range(3000):
            rising = [rng.randint(1, 12)]
            for _ in range(rng.randint(0, 4)):
                rising.append(rising[-1] + rng.randint(5, 9))
            indices = tuple(reversed(rising))
            if rng.random() < 0.5:
                if indices[-1] >= 10:
                    indices = indices + (4, 2)
                else:
                    indices = (4, 2)  # the bare tail is itself a valid shape
            dec = Decomposition(indices, tuple(cache.term(i) for i in indices))
            cond1, cond2 = structure_conditions(dec)
            assert cond1 != cond2, indices
            assert greedy6_decompose(dec.total).indices == indices, indices


class TestMinSummands:
    def test_six(self):
        assert min_summands(6) == 2

    def test_exact_term(self):
        cache = quilt_terms(20)
        for n in (1, 7, 15):
            assert min_summands(cache.term(n)) == 1

    def test_27(self):
        assert min_summands(27) == 3

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            min_summands(oracle.MIN_SUMMANDS_BUDGET + 1)

    def test_equals_greedy6_count(self):
        table = min_summands_table(10**4)
        for m in range(1, 10**4 + 1):
            assert len(greedy6_decompose(m)) == table[m], m


class TestMoveSystem:
    def test_doubled_seven(self):
        # 2 q_7 = q_9 + q_2 (9 + 9 = 16 + 2)
        trace = normalize_to_greedy6([7, 7])
        assert trace.final.indices == (9, 2)
        assert trace.steps[0].move == "1"
        assert trace.final.indices == greedy6_decompose(18).indices

    def test_five_plus_one(self):
        # the terminal swap: q_5 + q_1 -> q_4 + q_2
        trace = normalize_to_greedy6([5, 1])
        assert trace.final.indices == (4, 2)
        assert [s.move for s in trace.steps] == ["tail"]

    def test_greedy6_output_is_fixpoint(self):
        for m in (1, 6, 27, 106, 9999):
            dec = greedy6_decompose(m)
            trace = normalize_to_greedy6(dec.indices)
            assert trace.steps == []
            assert trace.final.indices == dec.indices

    def test_empty_input(self):
        trace = normalize_to_greedy6([])
        assert trace.final.indices == ()
        assert trace.steps == []

    def test_sum_preserved_on_every_step(self):
        cache = quilt_terms(40)

        def value(multiset):
            return sum(cache.term(i) for i in multiset)

        rng = random.Random(7)
        for _ in range(300):
            m = rng.randrange(1, 30000)
            parts = []
            r = m
            while r:
                hi = cache.index_of_largest_leq(r)
                i = rng.randint(max(1, hi - 2), hi)
                parts.append(i)
                r -= cache.term(i)
            trace = normalize_to_greedy6(parts)
            for step in trace.steps:
                assert value(step.before) == value(step.after)
            assert trace.final.total == m
            assert trace.final.indices == greedy6_decompose(m).indices

    def test_summand_count_never_increases(self):
        rng = random.Random(11)
        cache = quilt_terms(40)
        for _ in range(200):
            m = rng.randrange(1, 10000)
            parts = []
            r = m
            while r:
                hi = cache.index_of_largest_leq(r)
                i = rng.randint(max(1, hi - 2), hi)
                parts.append(i)
                r -= cache.term(i)
            trace = normalize_to_greedy6(parts)
            for step in trace.steps:
                assert len(step.after) <= len(step.before)

    def test_measure_strictly_decreases(self):
        def measure(ms):
            return (len(ms), sum(ms), sum(1 for i in ms if 2 <= i <= 5))

        trace = normalize_to_greedy6([10, 10, 10, 3, 3, 2, 1, 1])
        for step in trace.steps:
            if step.move != "tail":
                assert measure(step.after) < measure(step.before)

    def test_small_case_identities_preserve_sums(self):
        # spot-check every hard-coded small case through the public surface
        cache = quilt_terms(15)
        pairs = [
            [6, 6], [5, 5], [4, 4], [3, 3], [2, 2], [1, 1],
            [3, 2], [2, 1], [7, 5], [6, 4], [5, 3], [4, 2], [3, 1],
            [9, 6], [8, 5], [7, 4], [6, 3], [5, 2], [4, 1], [6, 2],
        ]
        for pair in pairs:
            m = sum(cache.term(i) for i in pair)
            trace = normalize_to_greedy6(pair)
            assert trace.final.total == m, pair
            assert trace.final.indices == greedy6_decompose(m).indices, pair

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            normalize_to_greedy6([0, 3])

    def test_thousand_ones(self):
        trace = normalize_to_greedy6([1] * 1000)
        assert trace.final.total == 1000
        assert trace.final.indices == greedy6_decompose(1000).indices
        assert len(trace.steps) < 1100  # merges dominate, near-linear step count

    def test_heavy_mixed_multiset(self):
        cache = quilt_terms(15)
        parts = [1] * 200 + [2] * 150 + [3] * 100 + [7] * 50 + [13] * 20
        m = sum(cache.term(i) for i in parts)
        trace = normalize_to_greedy6(parts)
        assert trace.final.total == m
        assert trace.final.indices == greedy6_decompose(m).indices
