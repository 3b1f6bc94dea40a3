"""The Fibonacci Quilt sequence and its legality rule.

The sequence 1, 2, 3, 4, 5, 7, 9, 12, 16, 21, ... is built so that each term
is the smallest positive integer with no legal decomposition over the earlier
terms, where a set of summand indices is legal iff no two indices differ by
1, 3, or 4 and the pair {1, 3} never appears together.  (Index difference 2
is allowed; 1 and 3 are the lone exception, inherited from the start of the
quilt spiral.)  Apart from a few initial terms this is the Padovan sequence,
OEIS A000931.
"""

from __future__ import annotations

from typing import Iterable

from .errors import BudgetExceededError
from .generacci import TERMS_BUDGET, RecurrenceCache

#: Index differences that make a pair of summands illegal.
FORBIDDEN_DIFFS = frozenset({1, 3, 4})


class QuiltCache(RecurrenceCache):
    """Memoized prefix of the quilt sequence, 1-based.

    1..5 are forced one by one; 6 = 4 + 2 is already legal, so the sixth
    term is 7.  From there on q_{n+1} = q_n + q_{n-4}.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__((1, 2, 3, 4, 5, 7), 1, 5, 1)


_shared = QuiltCache()


def shared_cache() -> QuiltCache:
    """Process-wide cache; fine to share since growth is append-only."""
    return _shared


def quilt_terms(count: int) -> QuiltCache:
    """A cache holding at least the first ``count`` terms."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > TERMS_BUDGET:
        raise BudgetExceededError("sequence length", count, TERMS_BUDGET)
    cache = QuiltCache()
    cache.ensure_count(count)
    return cache


def is_fq_legal(indices: Iterable[int]) -> bool:
    """Legality of a set of 1-based indices: :func:`fq_extend_ok`, folded.

    Duplicates are illegal (difference 0), as is any pair differing by 1, 3,
    or 4, and the specific pair {1, 3}.  The empty set is legal.
    """
    idx = sorted(indices, reverse=True)
    if idx and idx[-1] < 1:
        raise ValueError(f"indices must be >= 1, got {idx[-1]}")
    chosen: list[int] = []
    for i in idx:
        if not fq_extend_ok(i, chosen):
            return False
        chosen.append(i)
    return True


def fq_extend_ok(candidate: int, chosen_desc: list[int]) -> bool:
    """Whether ``candidate`` may join ``chosen_desc`` (strictly decreasing).

    The one statement of the quilt rule; candidate must not exceed any chosen
    index (an equal one is a duplicate, so illegal).
    """
    for j in reversed(chosen_desc):  # nearest chosen indices first
        d = j - candidate
        if d > 4:
            break
        if d == 0 or d in FORBIDDEN_DIFFS:
            return False
    if candidate == 1 and 3 in chosen_desc:
        return False
    return True


#: Occupancy-window mask of the legality automaton.  Bits 0..3 flag whether
#: index i+1 .. i+4 is occupied when index i is being decided; bit d-1 is set
#: for each forbidden difference d.
WINDOW_BAD = sum(1 << (d - 1) for d in FORBIDDEN_DIFFS)


def partial_sum_identity_check(n: int) -> bool:
    """Whether q_1 + ... + q_n == q_{n+5} - 6 holds exactly at ``n``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cache = shared_cache()
    return sum(cache.terms(n)) == cache.term(n + 5) - 6
