"""Brute-force reference implementations and their cross-checks."""

from itertools import combinations

import pytest

from genquilt import BudgetExceededError
from genquilt.generacci import SBParams, generate, is_legal_sb
from genquilt.oracle import (
    DFS_COUNT_BUDGET,
    _extend_ok,
    count_decompositions_dfs,
    definitional_sequence,
    enumerate_legal,
    min_summands_table,
)
from genquilt.quilt import is_fq_legal, quilt_terms


class TestDefinitionalSequence:
    def test_quilt_first_eight(self):
        assert definitional_sequence("quilt", 8) == [1, 2, 3, 4, 5, 7, 9, 12]

    def test_fibonacci_five(self):
        assert definitional_sequence(SBParams(1, 1), 5) == [1, 2, 3, 5, 8]

    def test_kentucky_eight(self):
        assert definitional_sequence(SBParams(1, 2), 8) == [1, 2, 3, 4, 5, 8, 11, 16]

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            definitional_sequence("quilt", 26)

    def test_matches_recurrence_generator_quilt(self):
        assert definitional_sequence("quilt", 25) == quilt_terms(25).terms(25)

    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_matches_recurrence_generator_generacci(self, s, b):
        # (1,1) has the fastest value growth; 20 terms stays affordable
        params = SBParams(s, b)
        count = 20
        assert definitional_sequence(params, count) == generate(params, count).terms(count)


class TestEnumeration:
    def test_quilt_subsets_up_to_four(self):
        result = enumerate_legal("quilt", 4)
        got = {tuple(sorted(sub, reverse=True)) for sub in result.subsets}
        assert got == {(), (1,), (2,), (3,), (4,), (4, 2)}

    def test_quilt_with_top_index_seven(self):
        result = enumerate_legal("quilt", 7)
        assert sum(1 for sub in result.subsets if 7 in sub) == 4

    def test_every_subset_is_legal(self):
        for sub in enumerate_legal("quilt", 12).subsets:
            assert is_fq_legal(sub)
        params = SBParams(2, 2)
        for sub in enumerate_legal(params, 12).subsets:
            assert is_legal_sb(params, sub)

    def test_by_value_totals_subsets(self):
        result = enumerate_legal("quilt", 10)
        assert sum(result.by_value.values()) == len(result.subsets)

    def test_generacci_small_uniqueness(self):
        # (1,2), indices <= 4: values 0..4 hit exactly once
        result = enumerate_legal(SBParams(1, 2), 4)
        assert {m: result.by_value.get(m, 0) for m in range(5)} == {m: 1 for m in range(5)}

    def test_generacci_full_interval_uniqueness(self):
        # subsets over whole bins 1..n cover [0, a_{bn+1}) exactly once each
        for s, b in [(1, 1), (2, 2), (1, 3)]:
            params = SBParams(s, b)
            n_bins = 5
            top = b * n_bins
            cache = generate(params, top + 1)
            result = enumerate_legal(params, top)
            end = cache.term(top + 1)
            assert {m: result.by_value.get(m, 0) for m in range(end)} == {m: 1 for m in range(end)}
            assert all(v >= 0 for v in result.by_value.values())

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            enumerate_legal("quilt", 46)


class TestExtendRule:
    def test_sb_extend_agrees_with_full_predicate(self):
        # the oracle's incremental bin test vs the library's predicate, over legal prefixes
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
                            assert _extend_ok(params, cand, desc) == expected


class TestCountDecompositionsDfs:
    def test_106(self):
        assert count_decompositions_dfs(106) == 3

    def test_matches_enumeration_by_value(self):
        by_value = enumerate_legal("quilt", 14).by_value
        for m in range(0, 86):  # indices <= 14 cover every m < q_15 = 86
            assert count_decompositions_dfs(m) == by_value.get(m, 0), m

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            count_decompositions_dfs(-1)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            count_decompositions_dfs(DFS_COUNT_BUDGET + 1)


class TestMinSummands:
    def test_six(self):
        assert min_summands_table(6)[6] == 2

    def test_one(self):
        assert min_summands_table(1)[1] == 1

    def test_exact_term(self):
        cache = quilt_terms(20)
        table = min_summands_table(cache.term(15))
        for n in (1, 7, 15):
            assert table[cache.term(n)] == 1

    def test_27(self):
        # greedy takes 21 + 5 + 1, which is illegal; 21 + 4 + 2 is minimal
        assert min_summands_table(27)[27] == 3

    def test_106(self):
        # consistent with the three-summand decomposition 65 + 37 + 4
        assert min_summands_table(106)[106] == 3

    def test_table_prefix(self):
        table = min_summands_table(30)
        assert table[0] == 0
        assert [table[m] for m in range(1, 8)] == [1, 1, 1, 1, 1, 2, 1]

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            min_summands_table(10**6 + 1)
