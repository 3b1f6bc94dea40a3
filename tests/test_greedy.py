"""Greedy decompositions, success counts, Greedy-6, and the move system."""

import functools
import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genquilt import BudgetExceededError, greedy
from genquilt.cli import percent_string
from genquilt.generacci import Decomposition
from genquilt.greedy import (
    NORMALIZE_INDEX_BUDGET,
    greedy6_decompose,
    greedy_decompose,
    normalize_to_greedy6,
    success_row,
    success_table,
)
from genquilt.oracle import MIN_SUMMANDS_BUDGET, greedy_failures, min_summands_table, structure_conditions
from genquilt.quilt import is_fq_legal, quilt_terms, shared_cache

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
        # counted directly, h_n is q_{n+1} - 1 less the greedy failures below q_{n+1}
        q = shared_cache().term
        failures = greedy_failures(q(23) - 1)
        h = [0] + [q(n + 1) - 1 - sum(f < q(n + 1) for f in failures) for n in range(1, 23)]
        rho = [Fraction(0)] + [Fraction(h[n], q(n + 1) - 1) for n in range(1, 23)]
        rec = success_table(22)
        assert rec.h == h
        assert rec.rho == rho
        assert [success_row(n) for n in range(1, 23)] == list(zip(h, rho))[1:]

    def test_g_recurrence(self):
        # g_n = h_n + 1 satisfies g_n = g_{n-1} + g_{n-5} exactly
        table = success_table(200)
        g = [h + 1 for h in table.h]
        for n in range(6, 201):
            assert g[n] == g[n - 1] + g[n - 5]


class TestSuccessRatioLimit:
    def test_limit_value(self):
        assert float(success_table(100).rho[100]) == pytest.approx(0.92627, abs=5e-5)

    def test_matches_table_17(self):
        assert float(success_table(17).rho[17]) == pytest.approx(0.924623, abs=1e-6)

    def test_cauchy_contraction(self):
        table = success_table(40)
        assert abs(table.rho[40] - table.rho[20]) < abs(table.rho[20] - table.rho[10])


def _literal_greedy6(m: int) -> Decomposition:
    # The rule as the paper states it: greedy, except that a remainder of
    # exactly 6 becomes q_4 + q_2.
    cache = shared_cache()
    indices = []
    while m:
        if m == 6:
            indices += (4, 2)
            break
        indices.append(cache.index_of_largest_leq(m))
        m -= cache.term(indices[-1])
    return Decomposition(tuple(indices), tuple(map(cache.term, indices)))


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

    def test_matches_literal_rule_to_1e4(self):
        for m in range(1, 10**4 + 1):
            assert greedy6_decompose(m) == _literal_greedy6(m), m

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**300))
    def test_matches_literal_rule(self, m):
        assert greedy6_decompose(m) == _literal_greedy6(m)

    def test_structured_decomposition_reconstructs(self):
        # the converse: ANY index set matching one of the two shapes is the
        # greedy-6 decomposition of its own value; build such sets directly
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
        assert min_summands_table(6)[6] == 2

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            min_summands_table(MIN_SUMMANDS_BUDGET + 1)

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

    def test_structure_theorem_and_fixpoints_agree_on_small_sets(self):
        # The engine's early exit asks greedy6_decompose whether the input is
        # already in normal form; the structure theorem must answer the same.
        # Every set of 1-5 distinct indices from 1..22: 35,442 of them.
        q = shared_cache().term
        sets = 0
        for size in range(1, 6):
            for desc in itertools.combinations(range(22, 0, -1), size):
                sets += 1
                normal = greedy6_decompose(sum(map(q, desc))).indices == desc
                cond1, cond2 = structure_conditions(Decomposition(desc, tuple(map(q, desc))))
                assert (cond1 != cond2) == normal, desc
                assert (not normalize_to_greedy6(desc).steps) == normal, desc
        assert sets == 35442

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


def _random_parts(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randint(1, 10) for _ in range(200)]


# SHA-256 of repr((trace.steps, trace.final)), pinned so that the
# deterministic move order and the trace tuples cannot drift.
GOLDEN_TRACES = {
    "seven_seven": ([7, 7], "7f376e0b294721020b1af11899af64f73cda7c2616cf621a0bd8faaec3d291ec"),
    "mixed_small": (
        [10, 10, 10, 3, 3, 2, 1, 1],
        "ba24e77718e714a8df065c6a2f0c3a8183084cbe3a6ee6b788531d95dec90878",
    ),
    "thousand_ones": ([1] * 1000, "9ae4b73bb9267316aa00c8798e1de2d358f26b781e27249e5bcf67c2d27261ec"),
    "heavy_mixed": (
        [1] * 200 + [2] * 150 + [3] * 100 + [7] * 50 + [13] * 20,
        "0a2c11acf26cd0be71e117a993fe01952ccc16b07c1c375b520363b02bc97e1e",
    ),
    "random200_1": (_random_parts(1), "37a88c9f2ea7b76e6b38bfb026482185c738475de79ef426a34124d96dee326b"),
    "random200_2": (_random_parts(2), "a265da4b2bed8e9436bcb78fdc4c79863ff8ac64390a80404708234e68b76fd7"),
    "random200_3": (_random_parts(3), "071eeaf9041ec708d44fd34c4cb8d8d49b83246ace8b0a88cff975e12c43dd8a"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_golden_trace(name):
    parts, digest = GOLDEN_TRACES[name]
    trace = normalize_to_greedy6(parts)
    assert hashlib.sha256(repr((trace.steps, trace.final)).encode()).hexdigest() == digest


def _seeded_corpus() -> list[list[int]]:
    rng = random.Random(19)
    corpus = [[rng.randint(1, 10) for _ in range(200)] for _ in range(50)]
    corpus += [[rng.randint(1, 25) for _ in range(rng.randint(2, 6))] for _ in range(500)]
    corpus += [[rng.randint(1, 10**4) for _ in range(rng.randint(1, 40))] for _ in range(20)]
    return corpus


def test_golden_corpus():
    # One SHA-256 over repr((trace.steps, trace.final)) for every input in
    # turn, pinned on the engine of per-step helpers that the flat loop replaced.
    digest = hashlib.sha256()
    for parts in _seeded_corpus():
        trace = normalize_to_greedy6(parts)
        digest.update(repr((trace.steps, trace.final)).encode())
    assert digest.hexdigest() == "049dbc1d121517309420490c1cea1c8bc514a24b720832e90b9df09fbfc2a684"


@functools.cache
def _min_summands_to_1e4() -> list[int]:
    return min_summands_table(10**4)


def _whole_measure(parts) -> tuple[int, int, int]:
    return len(parts), sum(parts), sum(1 for i in parts if 2 <= i <= 5)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=300))
def test_every_step_replays_against_whole_multiset_checks(parts):
    # The engine checks each step on the indices it swaps; this replays the
    # trace with the whole-multiset sum and measure as the reference.
    cache = quilt_terms(45)

    def value(multiset):
        return sum(cache.term(i) for i in multiset)

    m = value(parts)
    trace = normalize_to_greedy6(parts)
    prev = tuple(sorted(parts, reverse=True))
    for step in trace.steps:
        assert step.before == prev
        assert value(step.after) == m
        if step.move == "tail":
            assert Counter(step.before) - Counter(step.after) == Counter((5, 1))
            assert Counter(step.after) - Counter(step.before) == Counter((4, 2))
        else:
            assert _whole_measure(step.after) < _whole_measure(step.before)
        prev = step.after
    assert trace.final.indices == prev
    assert trace.final == greedy6_decompose(m)
    if m <= 10**4:
        assert len(trace.final) == _min_summands_to_1e4()[m]


def _count_map_moves(parts) -> list[tuple[str, tuple[int, ...]]]:
    # Reference move order: a per-index count map, anchors scanned from the
    # top down with the duplicate and then n-1 .. n-4 tried at each, the scan
    # restarting at n + 6, and the tail taken once no move applies if a 5 and
    # a 1 are both present.  Returns (move, multiset after the move) per step.
    counts = Counter(parts)
    cache = shared_cache()
    if len(counts) == len(parts):
        desc = tuple(sorted(parts, reverse=True))
        cond1, cond2 = structure_conditions(Decomposition(desc, tuple(map(cache.term, desc))))
        if cond1 != cond2:
            return []

    def find(scan_from):
        for n in range(scan_from, 0, -1):
            if n not in counts:
                continue
            if counts[n] >= 2:
                return "1", n
            for move, d, least in (("2", 1, 2), ("3", 2, 3), ("4", 3, 4), ("5", 4, 6)):
                if n >= least and n - d in counts:
                    return move, n
        return None

    def apply(move, n):
        # the pair's plain-greedy decomposition, computed here, not read from the engine
        if move == "tail":
            gone, new = (5, 1), (4, 2)
        else:
            gone = (n, n - "12345".index(move))
            new = greedy_decompose(sum(map(cache.term, gone))).decomposition.indices
        counts.subtract(gone)
        counts.update(new)
        for i in gone:
            if not counts[i]:
                del counts[i]
        moves.append((move, tuple(sorted(counts.elements(), reverse=True))))

    moves = []
    scan_from = max(parts)
    while (found := find(scan_from)) is not None:
        apply(*found)
        scan_from = found[1] + 6
    if 5 in counts and 1 in counts:
        apply("tail", 5)
    return moves


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=300))
def test_move_order_matches_count_map_scan(parts):
    trace = normalize_to_greedy6(parts)
    assert [(step.move, step.after) for step in trace.steps] == _count_map_moves(parts)


class TestChecksAreReal:
    def test_sum_changing_move_is_caught(self, monkeypatch):
        # 2 q_6 = 14 = q_8 + q_2; a corrupted rule adds q_8 + q_3 = 15
        real = greedy._pair_greedy
        monkeypatch.setattr(greedy, "_pair_greedy", lambda n, gap: (8, 3) if (n, gap) == (6, 0) else real(n, gap))
        with pytest.raises(AssertionError, match="changed the sum"):
            normalize_to_greedy6([6, 6])

    def test_identity_move_is_caught(self, monkeypatch):
        # Removing and re-adding the same indices keeps the sum but makes no
        # progress.  Only the first move is corrupted, so an engine without
        # the measure check finishes (and fails this test) instead of looping.
        real = greedy._pair_greedy
        calls = []

        def identity_first(n, gap):
            calls.append((n, gap))
            return (n, n - gap) if len(calls) == 1 else real(n, gap)

        monkeypatch.setattr(greedy, "_pair_greedy", identity_first)
        with pytest.raises(AssertionError, match="did not shrink the measure"):
            normalize_to_greedy6([7, 7])

    def test_wrong_final_form_is_caught(self, monkeypatch):
        # 2 q_7 = 18 = q_9 + q_2, where the moves end; q_8 + q_5 + q_1 has the
        # same sum, so only the comparison with the final form can catch it
        monkeypatch.setattr(greedy, "greedy6_decompose", lambda m: Decomposition((8, 5, 1), (12, 5, 1)))
        with pytest.raises(AssertionError, match="not the Greedy-6 form"):
            normalize_to_greedy6([7, 7])


# The indices each move adds at anchor n, from n = 10 on (move g + 1 at gap g).
_CLOSED_FORMS = (
    lambda n: (n + 2, n - 5),
    lambda n: (n + 2,),
    lambda n: (n + 1, n - 5),
    lambda n: (n + 1, n - 8),
    lambda n: (n + 1,),
)
# (n, gap) -> indices added, where a closed form does not hold below n = 10.
# The (5, 2) entry is q_6 + q_1: 5 + 3 and 7 + 1 are both 8.
_SMALL_ANCHORS = {
    (1, 0): (2,), (2, 0): (4,), (3, 0): (5, 1), (4, 0): (6, 1), (5, 0): (7, 1), (6, 0): (8, 2),
    (2, 1): (3,),
    (3, 2): (4,), (4, 2): (5, 1), (5, 2): (6, 1), (6, 2): (7, 2), (7, 2): (8, 2),
    (4, 3): (5,), (5, 3): (6,), (6, 3): (7, 1), (7, 3): (8, 1), (8, 3): (9, 1), (9, 3): (10, 2),
}


def test_every_move_adds_the_greedy_decomposition_of_its_pair():
    # Every (anchor, gap) the engine can reach: g = 0..3 from n = g + 1,
    # g = 4 from n = 6, and anchors up to two above the index budget.
    for n in range(1, NORMALIZE_INDEX_BUDGET + 3):
        for gap in range(5 if n >= 6 else min(n, 4)):
            added = greedy._pair_greedy(n, gap)
            assert 1 <= len(added) <= 2
            assert added == (_SMALL_ANCHORS.get((n, gap)) or _CLOSED_FORMS[gap](n)), (n, gap)
    assert all(n < 10 for n, _ in _SMALL_ANCHORS)


def test_index_over_budget_is_refused_before_growing_the_cache():
    before = len(shared_cache())
    with pytest.raises(BudgetExceededError):
        normalize_to_greedy6([3, NORMALIZE_INDEX_BUDGET + 1])
    assert len(shared_cache()) == before
