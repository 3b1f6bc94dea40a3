"""Greedy quilt decompositions, success counting, and the rewrite engine.

Plain greedy (largest term first) lands on a legal decomposition for roughly
92.6% of integers; the first failure is 6.  Greedy-6 patches the single bad
case by decomposing 6 as q_4 + q_2 whenever it appears as a remainder, and
the result is always legal, structurally rigid (consecutive index gaps of at
least 5, except for an optional trailing 4,2 pair below a prefix ending at
10 or higher), and uses the minimum possible number of summands.

Minimality is witnessed constructively by one sum-preserving rewrite rule:
replace two nearby entries (index gap at most 4) by the plain-greedy
decomposition of their sum, then finish with Greedy-6's tail swap.  It turns
ANY multiset of quilt terms into the Greedy-6 decomposition without ever
increasing the summand count.  Termination is guaranteed by the lexicographic
measure (summand count, index sum, count of indices in {2..5}), which every
step strictly decreases.

The success counts h_n and ratios rho_n are recurrence caches, one per
process beside the quilt cache (``generacci.RecurrenceCache``, whose lock
guards their growth): a call grows them only past their current length and
hands out copies.  At SUCCESS_TABLE_BUDGET rows they hold about 9.5 MB
(peak RSS growth in a fresh process, ``resource.getrusage``).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from fractions import Fraction
from functools import cache
from typing import Iterable, NamedTuple

from . import BudgetExceededError
from .generacci import Decomposition, RecurrenceCache, check_size, decompose
from .quilt import is_fq_legal, shared_cache

#: Most rows the success functions hand out.  rho_n is a reduced fraction
#: with about n/8 digits above and below the line, so the table holds about
#: n^2/8 digits in all.
SUCCESS_TABLE_BUDGET = 10**4
#: Most parts normalize_to_greedy6 takes: a trace holds about as many steps as
#: parts, each a tuple of up to that many indices, so its size is quadratic.
NORMALIZE_PARTS_BUDGET = 2000
#: Largest index normalize_to_greedy6 takes; q_i has about i/8 digits.
NORMALIZE_INDEX_BUDGET = 10**4
#: The removed and added indices of the swap q_5 + q_1 -> q_4 + q_2: both
#: pairs sum to 6, and only the second is legal.  Greedy-6 ends with it, and
#: the rewrite engine applies it as its terminal "tail" move.
_TAIL = ((5, 1), (4, 2))


class GreedyOutcome(NamedTuple):
    decomposition: Decomposition
    legal: bool


class SuccessTable(NamedTuple):
    """h[n] = integers in [1, q_{n+1}) where plain greedy succeeds; rho[n] = h_n/(q_{n+1}-1).

    Index 0 is a zero pad so h[n] is h_n.
    """

    h: list[int]
    rho: list[Fraction]


class MoveStep(NamedTuple):
    move: str
    before: tuple[int, ...]
    after: tuple[int, ...]


class MoveTrace(NamedTuple):
    steps: list[MoveStep]
    final: Decomposition


def greedy_decompose(m: int) -> GreedyOutcome:
    """Repeatedly subtract the largest q_i <= remainder; flag legality."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    dec = decompose(shared_cache(), m)
    return GreedyOutcome(dec, is_fq_legal(dec.indices))


def greedy6_decompose(m: int) -> Decomposition:
    """Greedy with one override: a remainder of exactly 6 becomes q_4 + q_2.

    A remainder whose largest term is q_5 is 5 or 6, and only 6 leaves a 1,
    so plain greedy ends in (5, 1) exactly when it meets a remainder of 6.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    cache = shared_cache()
    dec = decompose(cache, m)
    if dec.indices[-2:] != _TAIL[0]:
        return dec
    return Decomposition(dec.indices[:-2] + _TAIL[1], dec.values[:-2] + tuple(map(cache.term, _TAIL[1])))


def _rho_n(n: int) -> Fraction:
    return Fraction(_h.term(n + 1), shared_cache().term(n + 1) - 1)


# The shared h and rho columns, from n = 0 (h_0 = rho_0 = 0): h_k = k for
# k <= 5, then h_n = h_{n-1} + h_{n-5} + 1, two adds per row and no fraction
# reduced.  g_n = h_n + 1 follows the quilt recurrence g_n = g_{n-1} + g_{n-5}.
# Counted directly, h_n is q_{n+1} - 1 less the greedy failures below q_{n+1}
# (``oracle.greedy_failures``).
_h = RecurrenceCache(range(6), lambda h: h[-1] + h[-5] + 1)
_rho = RecurrenceCache((Fraction(0),), lambda rho: _rho_n(len(rho)))


def success_row(n: int) -> tuple[int, Fraction]:
    """(h_n, rho_n) for one n, reducing one fraction, not n of them."""
    check_size("n_max", n, "success table size", SUCCESS_TABLE_BUDGET)
    return _h.term(n + 1), _rho_n(n)


def success_table(n_max: int) -> SuccessTable:
    """h_n and rho_n for n = 1..n_max (``success_row``).

    Both columns are fresh copies of the shared prefixes, so callers may
    mutate them.  Only rows past the longest table asked for so far are
    reduced.
    """
    check_size("n_max", n_max, "success table size", SUCCESS_TABLE_BUDGET)
    return SuccessTable(_h.terms(n_max + 1), _rho.terms(n_max + 1))


# --- the rewrite engine -----------------------------------------------------
#
# Move g + 1 takes an anchor n and the next-lower entry of the multiset, at
# index gap g (so move 1 takes a repeated index), and replaces that pair with
# the plain-greedy decomposition of q_n + q_{n-g}.  The Padovan identities
# make that one or two parts: from n = 10 on they are q_{n+2} + q_{n-5},
# q_{n+2}, q_{n+1} + q_{n-5}, q_{n+1} + q_{n-8} and q_{n+1} for g = 0..4.
# And q_n + q_{n-g} <= 2 q_n < q_{n+3}, so no move adds an index above n + 2.


@cache
def _pair_greedy(n: int, gap: int) -> tuple[int, ...]:
    """The plain-greedy indices of q_n + q_{n-gap}, once per process.

    Anchors stop at NORMALIZE_INDEX_BUDGET + 2, so the memo holds at most
    five entries per anchor: 10.5 MB with every one filled (``tracemalloc``).
    """
    q = shared_cache()
    return decompose(q, q.term(n) + q.term(n - gap)).indices


def normalize_to_greedy6(indices: Iterable[int]) -> MoveTrace:
    """Rewrite any multiset of quilt indices to its Greedy-6 normal form.

    Every move obeys one rule: it removes an anchor n and the next-lower
    entry n - g (0 <= g <= 4, and g = 4 only from n = 6) and adds the
    plain-greedy decomposition of q_n + q_{n-g}.  Once no move applies, the
    Greedy-6 tail swap (5,1) -> (4,2) ends the run, so the engine is plain
    greedy on pairs followed by the swap that ``greedy6_decompose`` makes.

    One loop does all the work.  The multiset is kept as a sorted list,
    edited in place, and each step records it as a descending tuple.  Moves
    are applied deterministically: adjacent entries are scanned from the
    largest index down, and the first anchor n whose next-lower entry lies at
    index gap g takes move g + 1.  A move at anchor n creates nothing above
    n + 2 and cannot wake any anchor above n + 6, so one bisection restarts
    the scan there instead of at the top.

    Every step is checked in exact arithmetic against the pair of index
    tuples it swaps, the rest of the multiset being left alone: the removed
    and added terms must have equal sums (the same as the whole multiset
    keeping its sum), and every step but the tail must strictly shrink the
    termination measure, which changes by the added tuple's measure minus
    the removed pair's; and the run must end at ``greedy6_decompose`` of the
    sum, which it returns.  A failed check raises AssertionError.  Each
    step's ``after`` tuple is its ``before`` tuple with the moved indices
    taken out and put in, and is the next step's ``before``.

    Inputs of more than NORMALIZE_PARTS_BUDGET parts, or with an index above
    NORMALIZE_INDEX_BUDGET, raise BudgetExceededError before any move runs.
    """
    parts = tuple(sorted(indices, reverse=True))
    if len(parts) > NORMALIZE_PARTS_BUDGET:
        raise BudgetExceededError("normalization parts", len(parts), NORMALIZE_PARTS_BUDGET)
    if not parts:
        return MoveTrace([], Decomposition((), ()))
    if parts[-1] < 1:
        raise ValueError(f"indices must be >= 1, got {parts[-1]}")
    if parts[0] > NORMALIZE_INDEX_BUDGET:
        raise BudgetExceededError("normalization index", parts[0], NORMALIZE_INDEX_BUDGET)

    cache = shared_cache()
    # read in place, not copied: q[i - 1] is q_i, and the list only ever grows
    q = cache.ensure_count(parts[0])._terms
    m = sum(map(q.__getitem__, [i - 1 for i in parts]))
    normal = greedy6_decompose(m)
    if parts == normal.indices:
        # Inputs already in normal form stay put.  Without this check the
        # raw move relation would take a (4,2) tail on a round trip through
        # (5,1) and back via the terminal swap.
        return MoveTrace([], normal)

    # Each step keeps the sum, so no index ever present exceeds the largest
    # index whose term fits in that sum, and a move adds at most two above its
    # anchor: q holds q_i for every index a step can touch.
    cache.ensure_count(cache.index_of_largest_leq(m) + 2)
    steps: list[MoveStep] = []
    state = parts
    rising = sorted(parts)  # state in ascending order, edited in place
    move, k = "", len(rising) - 1
    while move != "tail":
        for k in range(k, 0, -1):
            n = rising[k]
            gap = n - rising[k - 1]
            if gap < 4 or (gap == 4 and n >= 6):
                move, gone, new = "12345"[gap], (n, n - gap), _pair_greedy(n, gap)
                break
        else:
            # With no move left no index repeats and the entry after a 5 is
            # at most 1, so a 5 and a 1 together can only be the last two.
            if state[-2:] != _TAIL[0]:
                break
            move, n, k = "tail", 5, 1
            gone, new = _TAIL
        del rising[k - 1 : k + 1]  # the pair that gone names
        for i in new:
            insort(rising, i)
        after = tuple(rising[::-1])
        # the removed value less the added one, in a plain loop: before Python
        # 3.12 a comprehension reading q turns q into a closure cell, which
        # slows every read of it
        lost = q[gone[0] - 1] + q[gone[1] - 1]
        for i in new:
            lost -= q[i - 1]
        if lost:
            raise AssertionError(f"move {move} at {n} changed the sum: {state} -> {after}")
        # the measure shrinks when the first nonzero difference, added minus
        # removed, of (count, index sum, count in 2..5) is negative
        change = len(new) - len(gone) or sum(new) - sum(gone)
        if move != "tail" and (change or sum(1 < i < 6 for i in new) - sum(1 < i < 6 for i in gone)) >= 0:
            raise AssertionError(f"move {move} at {n} did not shrink the measure")
        steps.append(MoveStep(move, state, after))
        state = after
        k = bisect_right(rising, n + 6) - 1
    if state != normal.indices:
        raise AssertionError(f"the moves ended at {state}, not the Greedy-6 form {normal.indices}")
    return MoveTrace(steps, normal)
