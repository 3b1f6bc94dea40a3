"""Brute-force reference implementations.

Everything here exists to be obviously correct rather than fast: sequences
rebuilt from their literal definitions by scanning for the smallest
non-representable integer, exhaustive legal-subset enumeration, a
depth-first decomposition counter, a scan of plain greedy for its failures
(which the success-table recurrence is checked against), the two shapes
of the Greedy-6 structure theorem, a plain coin-change DP for minimal
summand counts, and a Sylvester-matrix resultant.  Closed-form
generators, counting recurrences and exact shortcuts are validated
against these.  Both legality rules are stated here, pairwise (the quilt
rule apart from the library's automaton; the (s,b) rule only here, as the
library's greedy decomposition needs no check); only plain greedy, in the
failure scan, is shared.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Literal, NamedTuple

from . import BudgetExceededError
from . import generacci as g
from . import quilt as q
from .greedy import greedy_decompose
from .numerics import Polynomial

Kind = g.SBParams | Literal["quilt"]

DEFINITIONAL_BUDGET = 25
QUILT_ENUMERATION_BUDGET = 45  # d_45 = 5,057,751 subsets
SB_ENUMERATION_BUDGET = 2 * 10**6  # subsets over indices <= N number about a_{N+1}
MIN_SUMMANDS_BUDGET = 10**6
DFS_COUNT_BUDGET = 10**12  # the walk visits every decomposition: about 1 s at 13 digits


class EnumerationResult(NamedTuple):
    """All legal index subsets up to a maximum index, plus value counts."""

    subsets: list[tuple[int, ...]]
    by_value: dict[int, int]


def _extend_ok(kind: Kind, candidate: int, chosen_desc: list[int]) -> bool:
    """Whether ``candidate`` may join ``chosen_desc``, every one of which is
    at least as large: each rule stated pairwise, over every chosen index."""
    if kind == "quilt":
        if candidate == 1 and 3 in chosen_desc:
            return False
        return all(j - candidate not in (0, 1, 3, 4) for j in chosen_desc)
    s, b = kind.s, kind.b
    return all((j - 1) // b - (candidate - 1) // b > s for j in chosen_desc)


def is_legal(kind: Kind, indices: Iterable[int]) -> bool:
    """Whether the index set obeys ``kind``'s rule, each index checked by
    ``_extend_ok`` against every larger one; duplicates are illegal."""
    desc = sorted(indices, reverse=True)
    if desc and desc[-1] < 1:
        raise ValueError(f"indices must be >= 1, got {desc[-1]}")
    return all(_extend_ok(kind, i, desc[:n]) for n, i in enumerate(desc))


def definitional_sequence(kind: Kind, count: int) -> list[int]:
    """Rebuild a sequence from its definition alone.

    Each new term is found by scanning the positive integers from 1 for the
    first value with no legal decomposition over the terms so far (an
    exhaustive search, hence the budget).
    """
    g.check_size("count", count, "definitional sequence length", DEFINITIONAL_BUDGET)
    terms: list[int] = []

    def representable(m: int) -> bool:
        # DFS over indices descending; sum must hit m exactly
        def rec(max_i: int, remaining: int, chosen: list[int]) -> bool:
            if remaining == 0:
                return bool(chosen)
            for i in range(max_i, 0, -1):
                v = terms[i - 1]
                if v > remaining:
                    continue
                if not _extend_ok(kind, i, chosen):
                    continue
                chosen.append(i)
                if rec(i - 1, remaining - v, chosen):
                    chosen.pop()
                    return True
                chosen.pop()
            return False

        return rec(len(terms), m, [])

    while len(terms) < count:
        m = 1
        while representable(m):
            m += 1
        terms.append(m)
    return terms


def enumerate_legal(kind: Kind, max_index: int) -> EnumerationResult:
    """Every legal index subset of {1..max_index}, the empty set included.

    ``by_value`` maps each achieved sum to the number of subsets achieving
    it.
    """
    if max_index < 1:
        raise ValueError(f"max_index must be >= 1, got {max_index}")
    if kind == "quilt":
        if max_index > QUILT_ENUMERATION_BUDGET:
            raise BudgetExceededError("enumeration max index", max_index, QUILT_ENUMERATION_BUDGET)
        values = q.quilt_terms(max_index).terms(max_index)
    else:
        # subset count tracks the covered interval, so budget on that
        cache = g.generate(kind, max_index + 1)
        if cache.term(max_index + 1) > SB_ENUMERATION_BUDGET:
            raise BudgetExceededError(
                "enumeration subset estimate", cache.term(max_index + 1), SB_ENUMERATION_BUDGET
            )
        values = cache.terms(max_index)

    subsets: list[tuple[int, ...]] = []
    by_value: dict[int, int] = {}
    chosen: list[int] = []

    def rec(max_i: int, total: int) -> None:
        by_value[total] = by_value.get(total, 0) + 1
        subsets.append(tuple(chosen))
        for i in range(max_i, 0, -1):
            if _extend_ok(kind, i, chosen):
                chosen.append(i)
                rec(i - 1, total + values[i - 1])
                chosen.pop()

    rec(max_index, 0)
    return EnumerationResult(subsets, by_value)


def count_decompositions_dfs(m: int) -> int:
    """Number of FQ-legal index sets summing to ``m`` (m = 0 counts 1).

    Depth-first over indices descending with the 5-wide occupancy window, the
    {1,3} rule, and pruning by the partial-sum identity
    q_1 + ... + q_i = q_{i+5} - 6.  Its work tracks the count it returns.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m > DFS_COUNT_BUDGET:
        raise BudgetExceededError("depth-first count value", m, DFS_COUNT_BUDGET)
    if m == 0:
        return 1
    cache = q.shared_cache()
    top = cache.index_of_largest_leq(m)
    term = cache.term

    def rec(i: int, remaining: int, mask: int, three_used: bool) -> int:
        if remaining == 0:
            return 1
        if i == 0 or remaining > term(i + 5) - 6:
            return 0  # even taking everything below i cannot reach
        total = 0
        v = term(i)
        # bits 0, 2, 3 of the window: indices i+1, i+3, i+4
        if v <= remaining and not mask & 0b1101 and not (i == 1 and three_used):
            total += rec(i - 1, remaining - v, ((mask << 1) | 1) & 0b1111, three_used or i == 3)
        total += rec(i - 1, remaining, (mask << 1) & 0b1111, three_used)
        return total

    return rec(top, m, 0, False)


def greedy_failures(limit: int) -> list[int]:
    """All m in [1, limit] where plain greedy yields an illegal decomposition."""
    return [m for m in range(1, limit + 1) if not greedy_decompose(m).legal]


def structure_conditions(dec: g.Decomposition) -> tuple[bool, bool]:
    """The two mutually exclusive shapes a Greedy-6 result can take.

    (1) every consecutive index gap is >= 5;
    (2) gaps >= 5 down to a final exact (4, 2) tail, the index before the
        tail being >= 10.  With only the tail present (t = 2) the prefix
        constraints are vacuous.
    """
    idx = dec.indices
    t = len(idx)
    cond1 = all(idx[i] - idx[i + 1] >= 5 for i in range(t - 1))
    cond2 = False
    if idx[-2:] == (4, 2):
        prefix_ok = all(idx[i] - idx[i + 1] >= 5 for i in range(t - 3))
        third_ok = t < 3 or idx[-3] >= 10
        cond2 = prefix_ok and third_ok
    return cond1, cond2


def min_summands_table(m_max: int) -> list[int]:
    """DP table t with t[m] = minimal number of quilt summands for m (t[0] = 0)."""
    g.check_size("m_max", m_max, "min-summands DP size", MIN_SUMMANDS_BUDGET)
    cache = q.shared_cache()
    denoms = cache.terms(cache.index_of_largest_leq(m_max))
    big = m_max + 1
    table = [0] + [big] * m_max
    for m in range(1, m_max + 1):
        best = big
        for v in denoms:
            if v > m:
                break
            c = table[m - v] + 1
            if c < best:
                best = c
        table[m] = best
    return table


def resultant(p: Polynomial, q: Polynomial) -> int:
    """Exact resultant via the Sylvester matrix (Fraction elimination)."""
    n, m = p.degree, q.degree
    size = n + m
    rows: list[list[Fraction]] = []
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    for i in range(m):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in pc] + [Fraction(0)] * (size - n - 1 - i))
    for i in range(n):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in qc] + [Fraction(0)] * (size - m - 1 - i))
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            f = rows[r][col] * inv
            if f:
                for c in range(col, size):
                    rows[r][c] -= f * rows[col][c]
    assert det.denominator == 1
    return det.numerator
