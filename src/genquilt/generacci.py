"""Bin-constrained (s,b) decomposition sequences.

For parameters s, b >= 1 the index line is split into bins of b consecutive
indices; a sum of distinct terms is legal iff no two summands share a bin and
any two occupied bins are separated by at least s whole bins.  Each term of
the sequence is the smallest positive integer that the earlier terms cannot
legally represent.  Familiar members: (1,1) is the Fibonacci sequence, (2,1)
Narayana's cows, (1,2) the Kentucky sequence.

Every positive integer has exactly one legal decomposition, and the greedy
choice (largest term not exceeding the remainder) always finds it; both facts
are exercised against exhaustive enumeration in the test suite.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable

from .errors import BudgetExceededError

#: Most terms ``generate`` and ``quilt.quilt_terms`` hand out: the n-th term
#: has up to about n/5 digits, so the cache holds up to about n^2/10 digits.
TERMS_BUDGET = 5 * 10**4
#: Most literal seed terms, (s+1)b + 1, that an (s,b) system may have.
SEED_BUDGET = 10**6


@dataclass(frozen=True)
class SBParams:
    """The pair (s, b): required bin gap and bin width."""

    s: int
    b: int

    def __post_init__(self) -> None:
        if self.s < 1 or self.b < 1:
            raise ValueError(f"s and b must be >= 1, got ({self.s}, {self.b})")
        if self.seed_count > SEED_BUDGET:
            raise BudgetExceededError("(s,b) seed size", self.seed_count, SEED_BUDGET)

    @property
    def seed_count(self) -> int:
        """Indices 1 .. (s+1)b + 1 hold the literal values 1, 2, 3, ..."""
        return (self.s + 1) * self.b + 1


@dataclass(frozen=True)
class Decomposition:
    """A sum of distinct sequence terms, indices strictly decreasing."""

    indices: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.values):
            raise ValueError("indices and values must align")
        if any(a <= b for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("indices must be strictly decreasing")

    @property
    def total(self) -> int:
        return sum(self.values)

    def __len__(self) -> int:
        return len(self.indices)


class RecurrenceCache:
    """Memoized prefix of a_n = a_{n-near} + coeff * a_{n-far}, 1-based.

    Both families are recurrences of this shape with a zero leading term.
    Growth is append-only: a term, once computed, never changes, so shared
    concurrent readers are safe.
    """

    __slots__ = ("_terms", "_near", "_far", "_coeff")

    def __init__(self, seed: Iterable[int], near: int, far: int, coeff: int) -> None:
        self._terms = list(seed)
        self._near = near
        self._far = far
        self._coeff = coeff

    def __len__(self) -> int:
        return len(self._terms)

    # Both growth loops stay inline: term() and index_of_largest_leq() call
    # them on every greedy step, where the loop body almost never runs.
    def ensure_count(self, count: int) -> "RecurrenceCache":
        t = self._terms
        while len(t) < count:
            t.append(t[-self._near] + self._coeff * t[-self._far])
        return self

    def ensure_value(self, value: int) -> "RecurrenceCache":
        """Grow until the last cached term exceeds ``value``.

        Raises BudgetExceededError rather than grow past TERMS_BUDGET terms
        beyond the recurrence's depth, so a wide seed does not use it up.
        """
        t = self._terms
        while t[-1] <= value:
            if len(t) >= self._far + TERMS_BUDGET:  # checked only while growing
                raise BudgetExceededError("sequence length to pass m", f"more than {len(t)}", len(t))
            t.append(t[-self._near] + self._coeff * t[-self._far])
        return self

    def term(self, i: int) -> int:
        """a_i."""
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
        """Largest index i with a_i <= m (m >= 1)."""
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        self.ensure_value(m)
        return bisect_right(self._terms, m)


class SequenceCache(RecurrenceCache):
    """Memoized prefix of an (s,b) sequence: literal seeds, then
    a_n = a_{n-b} + b * a_{n-(s+1)b}."""

    __slots__ = ()

    def __init__(self, params: SBParams) -> None:
        super().__init__(range(1, params.seed_count + 1), params.b, (params.s + 1) * params.b, params.b)


def generate(params: SBParams, count: int) -> SequenceCache:
    """The first ``count`` terms: literal seeds, then the depth-(s+1)b recurrence."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > TERMS_BUDGET:
        raise BudgetExceededError("sequence length", count, TERMS_BUDGET)
    cache = SequenceCache(params)
    cache.ensure_count(count)
    return cache


def bin_of(params: SBParams, index: int) -> int:
    """1-based bin number of a 1-based index: ceil(index / b)."""
    if index < 1:
        raise ValueError(f"index must be >= 1, got {index}")
    return (index + params.b - 1) // params.b


def is_legal_sb(params: SBParams, indices: Iterable[int]) -> bool:
    """Whether the index set is legal: distinct bins, gaps of more than s bins.

    Two indices in one bin are illegal, so duplicate indices are too.  The
    empty set and singletons are legal.
    """
    idx = sorted(indices)
    for i in idx:
        if i < 1:
            raise ValueError(f"indices must be >= 1, got {i}")
    bins = [bin_of(params, i) for i in idx]
    return all(nxt - cur > params.s for cur, nxt in zip(bins, bins[1:]))


def sb_extend_ok(params: SBParams, candidate: int, chosen_desc: list[int]) -> bool:
    """Whether ``candidate`` may join ``chosen_desc`` (strictly decreasing).

    Bins are monotone in index, so only the nearest (= smallest) chosen index
    constrains the candidate.
    """
    if not chosen_desc:
        return True
    return bin_of(params, chosen_desc[-1]) - bin_of(params, candidate) > params.s


def greedy_decomposition(cache: RecurrenceCache, m: int) -> Decomposition:
    """Repeatedly subtract the largest term not exceeding the remainder.

    The cache grows as needed, and m = 0 yields the empty decomposition.
    """
    indices: list[int] = []
    values: list[int] = []
    remaining = m
    while remaining:
        i = cache.index_of_largest_leq(remaining)
        indices.append(i)
        values.append(cache.term(i))
        remaining -= values[-1]
    return Decomposition(tuple(indices), tuple(values))


def decompose(cache: SequenceCache, m: int) -> Decomposition:
    """The unique legal decomposition of ``m`` >= 0, found greedily.

    Repeatedly subtracts the largest term not exceeding the remainder; the
    cache grows as needed.  m = 0 yields the empty decomposition.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return greedy_decomposition(cache, m)
