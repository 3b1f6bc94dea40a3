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

from bisect import bisect_right
from typing import Iterable

#: Index differences that make a pair of summands illegal.
FORBIDDEN_DIFFS = frozenset({1, 3, 4})

# 1..5 are forced one by one; 6 = 4 + 2 is already legal, so the sixth term
# is 7.  From there on q_{n+1} = q_n + q_{n-4}.
_SEED = (1, 2, 3, 4, 5, 7)


class QuiltCache:
    """Memoized prefix of the quilt sequence, 1-based.

    Growth is append-only: a term, once computed, never changes, so shared
    concurrent readers are safe.
    """

    __slots__ = ("_terms",)

    def __init__(self) -> None:
        self._terms = list(_SEED)

    def __len__(self) -> int:
        return len(self._terms)

    def ensure_count(self, count: int) -> "QuiltCache":
        t = self._terms
        while len(t) < count:
            t.append(t[-1] + t[-5])
        return self

    def ensure_value(self, value: int) -> "QuiltCache":
        """Grow until the last cached term exceeds ``value``."""
        t = self._terms
        while t[-1] <= value:
            t.append(t[-1] + t[-5])
        return self

    def term(self, i: int) -> int:
        """q_i."""
        if i < 1:
            raise ValueError(f"index must be >= 1, got {i}")
        self.ensure_count(i)
        return self._terms[i - 1]

    def terms(self, count: int) -> list[int]:
        """The first ``count`` terms as a list."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.ensure_count(count)
        return self._terms[:count]

    def index_of_largest_leq(self, m: int) -> int:
        """Largest index i with q_i <= m (m >= 1)."""
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        self.ensure_value(m)
        return bisect_right(self._terms, m)


_shared = QuiltCache()


def shared_cache() -> QuiltCache:
    """Process-wide cache; fine to share since growth is append-only."""
    return _shared


def quilt_terms(count: int) -> QuiltCache:
    """A cache holding at least the first ``count`` terms."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    cache = QuiltCache()
    cache.ensure_count(count)
    return cache


def is_fq_legal(indices: Iterable[int]) -> bool:
    """Pairwise legality test for a set of 1-based indices.

    Duplicates are illegal (difference 0), as is any pair differing by 1, 3,
    or 4, and the specific pair {1, 3}.  The empty set is legal.
    """
    idx = sorted(indices)
    for i in idx:
        if i < 1:
            raise ValueError(f"indices must be >= 1, got {i}")
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            d = idx[b] - idx[a]
            if d > 4:
                break  # sorted, later differences only grow
            if d in (0, 1, 3, 4):
                return False
    if 1 in idx and 3 in idx:
        return False
    return True


def fq_extend_ok(candidate: int, chosen_desc: list[int]) -> bool:
    """Whether ``candidate`` may join ``chosen_desc`` (strictly decreasing).

    Incremental form of :func:`is_fq_legal` for enumeration loops; candidate
    must be smaller than every chosen index.
    """
    for j in reversed(chosen_desc):  # nearest chosen indices first
        d = j - candidate
        if d > 4:
            break
        if d in (0, 1, 3, 4):
            return False
    if candidate == 1 and 3 in chosen_desc:
        return False
    return True


#: Occupancy-window mask of the legality automaton.  Bits 0..3 flag whether
#: index i+1 .. i+4 is occupied when index i is being decided; differences 1,
#: 3, 4 are the forbidden ones (bit 1 = difference 2 is fine).
WINDOW_BAD = 0b1101


def fq_legal_window(indices: Iterable[int]) -> bool:
    """Sliding-window legality test, the automaton used inside enumerations.

    Must agree with :func:`is_fq_legal` everywhere (differentially tested).
    """
    lst = sorted(indices, reverse=True)
    if not lst:
        return True
    chosen = set(lst)
    if len(chosen) != len(lst):
        return False
    has_three = 3 in chosen
    mask = 0
    for i in range(lst[0], 0, -1):
        take = i in chosen
        if take:
            if mask & WINDOW_BAD:
                return False
            if i == 1 and has_three:
                return False
        mask = ((mask << 1) | take) & 0b1111
    return True


def partial_sum_identity_check(n: int, cache: QuiltCache | None = None) -> bool:
    """Whether q_1 + ... + q_n == q_{n+5} - 6 holds exactly at ``n``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cache = cache or shared_cache()
    cache.ensure_count(n + 5)
    return sum(cache.terms(n)) == cache.term(n + 5) - 6
