"""Counting FQ-legal decompositions.

Three intertwined counts over subsets of {q_1 .. q_n}:

  d_n  legal subsets (the empty one included; d_0 = 1),
  c_n  legal subsets containing q_n (c_0 = 1 by convention),
  b_n  legal subsets containing both q_n and q_{n-2}.

For n >= 7, a legal set holding q_n either holds q_{n-2}, and then nothing
else above n-7 (gaps of 1, 3 and 4 are illegal, so b_n = d_{n-7}), or it
does not, and then nothing else above n-5.  So c_n = d_{n-5} + d_{n-7}, and
as every other set lies within 1..n-1, d_n = d_{n-1} + d_{n-5} + d_{n-7},
whose characteristic polynomial is ``numerics.count_char``.  The {1, 3} rule
never couples these top indices.  So d grows by that recurrence from
d_0..d_6 = 1, 2, 3, 4, 6, 8, 11, c_n = d_n - d_{n-1} (every set without q_n)
from c_0 = 1, and b_n = d_{n-7} from b_0..b_6 = 0, 0, 0, 0, 1, 1, 1 (the
tests check the seeds against exhaustive enumeration).

d and c, and cap_i and T_n below, are recurrence caches, one per process
beside the quilt cache (``generacci.RecurrenceCache``, whose lock guards
their growth): a call grows them only past their current length and hands
out copies.  b is no column of its own: ``count_tables`` reads it from the
copy of d it hands out, sharing d's integers.  At COUNT_TABLES_BUDGET rows
d and c hold about 6.8 MB (peak RSS growth in a fresh process,
``resource.getrusage``).

No legal set over 1..i sums past

  cap_i = q_i + q_{i-2} + cap_{i-7}  (q_j = cap_j = 0 for j <= 0,
  so cap_0..cap_7 = 0, 1, 2, 4, 6, 8, 11, 14):

gaps of 1, 3 and 4 are illegal, so three summands within seven consecutive
indices would need gaps 2 and 2 (then 4 apart) or 5 and 1.  So any seven
consecutive indices hold at most two summands, 2, 5 or 6 apart and worth at
most q_j + q_{j-2} for the window's top index j.  And cap_i < q_{i+3}: by
induction cap_{i-7} < q_{i-4}, and q_{i+3} = q_i + q_{i-2} + q_{i-3} +
q_{i-4} (the tests check small i).

d_n counts subsets by index, not by value: some of them sum past q_{n+1}.
The averages need T_n, the legal sets worth less than q_{n+1} (all within
1..n; T_0 = 1).  With U_k = #{legal S within 1..k : sum S < q_{k+2}},

  T_n = U_{n-1} + T_{n-5}  and  U_k = d_{k-1} + T_{k-7} + d_{k-5},
  so T_n = T_{n-5} + T_{n-8} + d_{n-2} + d_{n-6}  for n >= 8,

from the literal seeds T_0..T_7 = 1, 2, 3, 4, 5, 7, 10, 14.  For T_n, split
on n.  A set with n leaves less than q_{n+1} - q_n = q_{n-4} for the rest.
n-1, n-3 and n-4 are illegal beside n, and q_{n-2} >= q_{n-4} is too big,
so the rest is counted by T_{n-5}.  For U_k, split on k.  Without k the
bound is vacuous, as cap_{k-1} < q_{k+2}: d_{k-1}.  With k, less than
q_{k+2} - q_k = q_{k-1} is left, and k-1, k-3 and k-4 are illegal.  If k-2
is taken too, k-5 and k-6 are illegal, and less than q_{k-1} - q_{k-2} =
q_{k-6} is left on 1..k-7: T_{k-7}.  If not, the rest lies within 1..k-5
and sums to at most cap_{k-5} < q_{k-2}: d_{k-5}.  For n >= 8 (so
k = n-1 >= 7) each term relation used holds, and the {1, 3} rule never
couples the top indices.

Per-integer counts come from one iterative sweep of the legality automaton
(the transfer-matrix method), stepped through the mask tables that ``quilt``
defines.  It decides the indices from the top down.  A state (remainder,
4-bit window mask), with its exact number of ways, is filed only at its
decision index, the largest i with q_i at most the remainder, where equal
states merge.  A remainder above cap_{i-1} when index i is skipped, or left
by a take at i, is pruned.

At index i the largest summand is i, i-1 or i-2, as cap_{i-3} < q_i (cap_k <
q_{k+3} above).  So the sweep tries the takes at i, i-1 and i-2 in turn,
shifting the window once per skip, and stops at the first skip the prune
refuses; no skip is stored.  A take at k that leaves r jumps to r's decision
index j, found by bisecting the terms below q_k, with its window shifted
down past k-1..j+1.  Those indices hold terms above r, so the state could
only skip them, and the prune would refuse none: r < q_{j+1} <= cap_j + 1,
as cap_j >= q_j + q_{j-2} >= q_j + q_{j-4} = q_{j+1} for j >= 6, and the
seeds give j <= 5 (the tests check j up to 3000).

A remainder that is a term is resolved at once, not carried.  q_j is the
smallest positive integer with no legal decomposition over q_1..q_{j-1}
(``quilt``), and every later term exceeds q_j, so {j} is the only legal set
worth q_j.  A take that leaves q_j therefore completes in exactly one way if
its window, shifted down to j, lets j be taken (the {1, 3} table at j = 1),
and in none otherwise; m = q_j counts 1 with no sweep.  The bisection below
q_k never misses: a take at k finds at most cap_k (r <= cap_j above, or m <
q_{k+1} at the top), and cap_k - q_k = q_{k-2} + cap_{k-7} < q_{k-2} +
q_{k-4} <= q_k (the tests check k up to 3000), so it leaves less than q_k.
The sweep reads q_i from the quilt cache's term list and cap_i from the cap
column.  ``oracle.count_decompositions_dfs`` is the naive depth-first
reference that the sweep is tested against.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple

from .generacci import RecurrenceCache, check_size
from .quilt import SKIP, TAKE, TAKE_AT_1, shared_cache

AVERAGE_BUDGET = 30
COUNT_TABLES_BUDGET = 10**4  # d_n has about n/7 digits


class CountTables(NamedTuple):
    """Aligned columns d, c, b; d[n] = d_n etc.  b[0] is a zero pad (b_n starts at n = 1)."""

    d: list[int]
    c: list[int]
    b: list[int]


class AverageReport(NamedTuple):
    """Exact average number of decompositions over [0, q_{n+1})."""

    n: int
    total: int
    average: Fraction
    exponent_estimate: float | None


#: The shared d and c columns from n = 0 (module docstring).
_d = RecurrenceCache((1, 2, 3, 4, 6, 8, 11), lambda d: d[-1] + d[-5] + d[-7])
_c = RecurrenceCache((1,), lambda c: _d.term(len(c) + 1) - _d.term(len(c)))


def count_tables(n_max: int) -> CountTables:
    """d, c, b for 0..n_max (module docstring).

    The columns are fresh copies of the shared prefixes, so callers may
    mutate them.  Only rows past the longest table asked for so far are
    computed.
    """
    check_size("n_max", n_max, "count table size", COUNT_TABLES_BUDGET)
    d = _d.terms(n_max + 1)
    return CountTables(d, _c.terms(n_max + 1), [0, 0, 0, 0, 1, 1, 1, *d][: n_max + 1])


#: cap_i from i = 0 (module docstring).
_cap = RecurrenceCache(
    (0, 1, 2, 4, 6, 8, 11, 14), lambda cap: shared_cache().term(len(cap)) + shared_cache().term(len(cap) - 2) + cap[-7]
)


def count_decompositions(m: int) -> int:
    """Exact number of FQ-legal index sets summing to ``m`` (m = 0 counts 1).

    One downward sweep (module docstring) from the largest index whose term
    is at most ``m``.  A remainder that reaches a term completes in one way
    or none, counted at once.  The work tracks the index of ``m`` (about
    eight indices per decimal digit), not the count returned: on random m
    about one state per two indices, each trying about two takes, with a
    bisection per take.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m == 0:
        return 1
    cache = shared_cache()
    top = cache.index_of_largest_leq(m)
    # read in place, not copied: both lists only ever grow
    q, cap = cache._terms, _cap.ensure_count(top + 1)._terms
    if q[top - 1] == m:
        return 1
    # pending[i]: the states whose decision index is i, none at a term, so no take leaves 0
    pending: list[dict[tuple[int, int], int] | None] = [None] * (top + 1)
    pending[top] = {(m, 0): 1}
    hit = 0
    for i in range(top, 0, -1):
        states = pending[i]
        if states is None:
            continue
        for (left, mask), ways in states.items():
            k = i  # i, i-1 or i-2: the only indices the largest summand can take
            while True:
                below = cap[k - 1]
                take = (TAKE_AT_1 if k == 1 else TAKE)[mask]
                if take >= 0:
                    rest = left - q[k - 1]
                    if rest <= below:
                        j = bisect_right(q, rest, 0, k - 1)
                        window = (take << (k - 1 - j)) & 0b1111
                        if q[j - 1] != rest:
                            filed = pending[j]
                            if filed is None:
                                filed = pending[j] = {}
                            key = (rest, window)
                            filed[key] = filed.get(key, 0) + ways
                        elif (TAKE_AT_1 if j == 1 else TAKE)[window] >= 0:
                            hit += ways
                if left > below:
                    break
                mask = SKIP[mask]
                k -= 1
    return hit


#: T_n from n = 0: literal seeds to T_7, the recurrence over d beyond (module docstring).
_totals = RecurrenceCache(
    (1, 2, 3, 4, 5, 7, 10, 14), lambda t: t[-5] + t[-8] + _d.term(len(t) - 1) + _d.term(len(t) - 5)
)


def average_decompositions(n: int) -> AverageReport:
    """Exact mean of the per-integer decomposition count over [0, q_{n+1}).

    Each decomposition of each m in range is one legal set worth less than
    q_{n+1}, so the total is T_n (module docstring).  The exponent estimate
    is average(n)/average(n-1), defined for n >= 2.
    """
    check_size("n", n, "average enumeration index", AVERAGE_BUDGET)
    cache = shared_cache()
    total = _totals.term(n + 1)
    average = Fraction(total, cache.term(n + 1))
    exponent = None
    if n >= 2:
        exponent = float(average / Fraction(_totals.term(n), cache.term(n)))
    return AverageReport(n=n, total=total, average=average, exponent_estimate=exponent)
