"""Counting FQ-legal decompositions.

Three intertwined counts over subsets of {q_1 .. q_n}:

  d_n  legal subsets (the empty one included; d_0 = 1),
  c_n  legal subsets containing q_n (c_0 = 1 by convention),
  b_n  legal subsets containing both q_n and q_{n-2}.

For n >= 7 they satisfy d_n = c_n + d_{n-1}, c_n = d_{n-5} + c_{n-2} - b_{n-2},
b_n = d_{n-7}, which collapse to the pure-d recurrence
d_n = d_{n-1} + d_{n-2} - d_{n-3} + d_{n-5} - d_{n-9} for n >= 10.

Note d_n counts subsets by index bound, not by value: some of the counted
subsets sum past q_{n+1}.  Average-count reports filter by value instead, so
the two views must not be conflated (the exact average over [0, q_{n+1}) is
total/q_{n+1} with the value filter applied).

Per-integer counts and the value-filtered totals behind the averages come
from one iterative sweep of the legality automaton (the transfer-matrix
method).  It decides the indices from the top down and keeps a dict from
state (budget left, 4-bit window mask, {1,3} flag) to an exact number of
ways; equal states merge, so about ten survive per index.  The budget is
compared with the sum of the terms below the current index i, which is
q_1 + ... + q_{i-1} = q_{i+4} - 6 (0 at i = 1).  In exact-sum mode a state
whose remainder exceeds it is pruned.  In below-limit mode a state whose
slack covers it drops its budget and runs on as the plain occupancy
automaton.  ``oracle.count_decompositions_dfs`` is the naive depth-first
reference that the sweep is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import oracle
from .errors import BudgetExceededError
from .quilt import WINDOW_BAD, shared_cache

AVERAGE_BUDGET = 30
COUNT_TABLES_BUDGET = 10**4  # d_n has about n/7 digits


@dataclass
class CountTables:
    """Aligned columns d, c, b; d[n] = d_n etc.  b[0] is a zero pad (b_n starts at n = 1)."""

    d: list[int]
    c: list[int]
    b: list[int]


@dataclass
class AverageReport:
    """Exact average number of decompositions over [0, q_{n+1})."""

    n: int
    total: int
    average: Fraction
    exponent_estimate: float | None


def _seed_tables(upto: int) -> tuple[list[int], list[int], list[int]]:
    # Rows below the recurrence threshold come from exhaustive enumeration,
    # not from a hard-coded table.
    d = [1]
    c = [1]
    b = [0]
    for n in range(1, upto + 1):
        subsets = oracle.enumerate_legal("quilt", n).subsets
        d.append(len(subsets))
        c.append(sum(1 for s in subsets if n in s))
        b.append(sum(1 for s in subsets if n in s and n - 2 in s))
    return d, c, b


def count_tables(n_max: int) -> CountTables:
    """d, c, b for 0..n_max: enumeration seeds below 7, recurrences beyond."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max > COUNT_TABLES_BUDGET:
        raise BudgetExceededError("count table size", n_max, COUNT_TABLES_BUDGET)
    d, c, b = _seed_tables(min(n_max, 6))
    for n in range(7, n_max + 1):
        b.append(d[n - 7])
        c.append(d[n - 5] + c[n - 2] - b[n - 2])
        d.append(c[n] + d[n - 1])
    return CountTables(d, c, b)


def _sweep(top: int, budget: int, *, exact: bool) -> int:
    """Legal index sets over 1..top summing to exactly ``budget`` (``exact``)
    or to at most ``budget`` (not ``exact``).

    After index i is decided, the lower terms can add at most ``below`` =
    q_1 + ... + q_{i-1}.  An exact state with more left can never reach 0 and
    is dropped; one with 0 left completes in exactly one way (take nothing
    more) and is counted at once.  A bounded state with at least ``below``
    left fits every completion, so its budget becomes None.
    """
    q = [0, *shared_cache().terms(top + 4)]  # q[i] = q_i
    states: dict[tuple[int | None, int, bool], int] = {(budget, 0, False): 1}
    hit = 0
    for i in range(top, 0, -1):
        v = q[i]
        below = q[i + 4] - 6 if i > 1 else 0
        nxt: dict = {}
        for (left, mask, three), ways in states.items():
            shifted = (mask << 1) & 0b1111
            succ = [(left, shifted, three)]
            if (left is None or v <= left) and not mask & WINDOW_BAD and not (i == 1 and three):
                succ.append((None if left is None else left - v, shifted | 1, three or i == 3))
            for key in succ:
                rest = key[0]
                if exact:
                    if rest == 0:
                        hit += ways
                        continue
                    if rest > below:
                        continue
                elif rest is not None and rest >= below:
                    key = (None, key[1], key[2])
                nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    return hit + sum(states.values())


def count_decompositions(m: int) -> int:
    """Exact number of FQ-legal index sets summing to ``m`` (m = 0 counts 1).

    One downward sweep of the occupancy automaton from the largest index
    whose term is at most ``m``.  Its state is (remainder, 4-bit window
    mask, {1,3} flag), about ten of them per index.  A remainder above the
    sum of the terms below the current index is pruned; that sum is exact by
    the identity q_1 + ... + q_i = q_{i+5} - 6.  The work tracks the index of
    ``m`` (about eight indices per decimal digit), not the count returned.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m == 0:
        return 1
    return _sweep(shared_cache().index_of_largest_leq(m), m, exact=True)


def _filtered_subset_total(n: int) -> int:
    """Number of legal subsets with value below q_{n+1}.

    Indices above n need not be visited: any such summand is itself at least
    q_{n+1}, so the value filter would reject the subset anyway.
    """
    return _sweep(n, shared_cache().term(n + 1) - 1, exact=False)


def average_decompositions(n: int) -> AverageReport:
    """Exact mean of the per-integer decomposition count over [0, q_{n+1}).

    Computed by counting legal subsets whose value stays below q_{n+1}
    (each decomposition of each m in range is one such subset).  The
    exponent estimate is average(n)/average(n-1), defined for n >= 2.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > AVERAGE_BUDGET:
        raise BudgetExceededError("average enumeration index", n, AVERAGE_BUDGET)
    cache = shared_cache()
    total = _filtered_subset_total(n)
    average = Fraction(total, cache.term(n + 1))
    exponent = None
    if n >= 2:
        prev = Fraction(_filtered_subset_total(n - 1), cache.term(n))
        exponent = float(average / prev)
    return AverageReport(n=n, total=total, average=average, exponent_estimate=exponent)
