"""Decomposition counting: tables, per-integer counts, exact averages."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from genquilt import BudgetExceededError
from genquilt.numerics import count_char, dominant_root
from genquilt.oracle import count_decompositions_dfs, enumerate_legal
from genquilt.quilt import is_fq_legal, quilt_terms
from genquilt.quilt_count import (
    _cap,
    _totals,
    average_decompositions,
    count_decompositions,
    count_tables,
)


def _caps(top):
    """q[i] = q_i and the sweep's legal-sum bounds cap[i], for i = 0..top."""
    return [0, *quilt_terms(top).terms(top)], _cap.terms(top + 1)


def _identity_corpus():
    """300 random m of 1-170 digits, q_j + delta (delta in -3..3) for every
    25th j up to 1200, and 200 sums of two or three distinct terms with
    indices up to 1200 (the odd draws hold a pair 1, 3 or 4 apart, so they
    are illegal), with those index sets."""
    rng = random.Random(20)
    q = [0, *quilt_terms(1200).terms(1200)]
    corpus = []
    for _ in range(300):
        d = rng.randint(1, 170)
        corpus.append(rng.randrange(10 ** (d - 1), 10**d))
    corpus += [q[j] + delta for j in range(25, 1201, 25) for delta in range(-3, 4)]
    sets = []
    for k in range(200):
        if k % 2:
            i = rng.randint(6, 1200)
            idx = {i, i - rng.choice((1, 3, 4))}
            while len(idx) < 2 + k % 4 // 2:
                idx.add(rng.randint(1, 1200))
        else:
            idx = set(rng.sample(range(1, 1201), rng.randint(2, 3)))
        sets.append(idx)
        corpus.append(sum(q[i] for i in idx))
    return corpus, sets


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
        for n in range(7, 201):
            assert t.d[n] == t.d[n - 1] + t.d[n - 5] + t.d[n - 7]

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
        # The sweep answers a term m by that very rule, without sweeping, so
        # this passes by construction; test_identity_corpus_pinned and
        # test_terms_have_no_decomposition_below_them are the real checks.
        assert count_decompositions(quilt_terms(n).term(n)) == 1

    def test_identity_corpus_pinned(self):
        # SHA-256 of repr(counts) over _identity_corpus, computed by the
        # sweep that carried term-valued remainders like any other.  It is
        # the only witness past the depth-first range for m = q_j and for
        # remainders that are terms.
        corpus, sets = _identity_corpus()
        assert sum(map(is_fq_legal, sets)) == 100
        counts = [count_decompositions(m) for m in corpus]
        digest = hashlib.sha256(repr(counts).encode()).hexdigest()
        assert digest == "c7ef4f8760f8826a0757cf9b833efac95c2a9e19d410c60678d604f5b7f20584"

    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.integers(min_value=1, max_value=45), min_size=1, max_size=4), st.integers(-2, 2))
    def test_matches_oracle_dfs_near_term_sums(self, indices, delta):
        # Sums of one to four terms, give or take 2: the remainders the sweep
        # resolves as terms, with the window shifted down to them.  The {1, 3}
        # pair and remainders 1..5 are pinned by the test below.
        q = _caps(45)[0]
        m = sum(q[i] for i in indices) + delta
        assume(m >= 0)
        assert count_decompositions(m) == count_decompositions_dfs(m)

    def test_matches_oracle_dfs_at_small_term_remainders(self):
        # Remainders 1..5 are q_1..q_5.  At q_k + 4, taking k and then 3
        # leaves q_1, where j = 1 reads the {1, 3} table.
        q = _caps(45)[0]
        for k in range(1, 46):
            for r in range(1, 6):
                assert count_decompositions(q[k] + r) == count_decompositions_dfs(q[k] + r), (k, r)

    @pytest.mark.parametrize(
        "m, count",
        [
            (10**139 + 1, 1326631152643801804800000),
            (7 * 10**165 + 3, 8053588979611776075945000960000),
        ],
    )
    def test_pinned_counts_past_the_dfs_range(self, m, count):
        # Computed by the sweep that pruned on q_1 + ... + q_{i-1}.
        assert count_decompositions(m) == count

    def test_matches_oracle_dfs_at_pruning_boundaries(self):
        # m at cap_i and at q_i, give or take 2: the edges where the sweep
        # prunes or counts a state, so a < written for <= shows here.
        q, cap = _caps(45)
        for i in range(1, 46):
            for delta in range(-2, 3):
                for m in (cap[i] + delta, q[i] + delta):
                    if m >= 0:
                        assert count_decompositions(m) == count_decompositions_dfs(m), (i, m)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_oracle_dfs_at_the_jump_edges(self, data):
        # m = q_a + r for remainders at the edges of the jump from a take at
        # a: just below, at and above q_j (the bisection's and the term
        # check's edges), just below q_{j+1}, and at cap_j and one past it
        # (the prune's edge).
        q, cap = _caps(46)
        a = data.draw(st.integers(8, 45), label="a")
        j = data.draw(st.integers(1, a - 1), label="j")
        r = data.draw(st.sampled_from((q[j] - 1, q[j], q[j] + 1, q[j + 1] - 1, cap[j], cap[j] + 1)), label="r")
        m = q[a] + r
        assert count_decompositions(m) == count_decompositions_dfs(m)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            count_decompositions(-1)


class TestLegalSumCaps:
    def test_terms_have_no_decomposition_below_them(self):
        # The rule the sweep resolves term remainders by: no legal set of
        # lower indices sums to q_j.  Enumerating every j <= 40 takes about
        # 11 s, so the enumeration stops at 30 and the oracle DFS, which
        # counts {j} as well, covers 31..40.
        q = _caps(40)[0]
        assert q[1] == 1  # j = 1: only the empty set lies below it
        for j in range(2, 31):
            assert q[j] not in enumerate_legal("quilt", j - 1).by_value, j
        for j in range(31, 41):
            assert count_decompositions_dfs(q[j]) == 1, j

    def test_a_take_leaves_less_than_its_term(self):
        # A state at index i holds at most cap_i, so a take at i leaves a
        # remainder q_j with j < i: the sweep resolves it without checking.
        q, cap = _caps(3000)
        for i in range(1, 3001):
            assert cap[i] - q[i] < q[i], i

    def test_a_skip_run_never_prunes(self):
        # A remainder below q_{j+1} is at most cap_j, so the skips the sweep
        # jumps over, down to the decision index j, would all have passed.
        q, cap = _caps(3001)
        for j in range(1, 3001):
            assert q[j + 1] - 1 <= cap[j], j

    def test_a_decision_takes_within_three_indices(self):
        # At decision index i the remainder is at least q_i, more than any
        # legal set below i - 2 sums to: the largest summand is i, i-1 or i-2.
        q, cap = _caps(3000)
        for i in range(3, 3001):
            assert cap[i - 3] < q[i], i

    def test_caps_bound_every_legal_sum(self):
        _, cap = _caps(30)
        for n in range(1, 31):
            assert cap[n] >= max(enumerate_legal("quilt", n).by_value), n

    def test_caps_never_exceed_the_partial_sums(self):
        q, cap = _caps(203)
        assert cap[0] == 0
        for n in range(1, 201):
            assert cap[n] <= sum(q[1 : n + 1]), n
            assert cap[n] < q[n + 3], n  # the lemma behind the averages' recurrence


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

    def test_below_limit_totals_match_enumeration(self):
        # T_0..T_34, seeds and recurrence alike, against the legal subsets of
        # 1..34 worth less than q_{n+1}.  An index above n would already put
        # a sum at or past q_{n+1}, so the subsets of 1..34 cover every n.
        by_value = enumerate_legal("quilt", 34).by_value
        q = quilt_terms(35).terms(35)  # q[n] = q_{n+1}
        expected = [sum(k for v, k in by_value.items() if v < q[n]) for n in range(35)]
        assert _totals.terms(35) == expected

    def test_totals_pinned_through_the_budget(self):
        # SHA-256 of the space-separated totals for n = 1..30, computed by the
        # sweep that dropped budgets on q_1 + ... + q_{i-1}.
        totals = " ".join(str(average_decompositions(n).total) for n in range(1, 31))
        digest = hashlib.sha256(totals.encode()).hexdigest()
        assert digest == "e5baff4add2736249632f057dcc4e65344d4c8b4773c9be525d09344ce643ad8"

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            average_decompositions(31)

    def test_average_grows(self):
        values = [average_decompositions(n).average for n in (5, 10, 15, 20, 25)]
        assert all(a < b for a, b in zip(values, values[1:]))
