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
from operator import gt
from threading import RLock
from typing import Callable, Iterable

from . import BudgetExceededError

#: Most terms ``generate`` and ``quilt.quilt_terms`` hand out: the n-th term
#: has up to about n/5 digits, so the cache holds up to about n^2/10 digits.
TERMS_BUDGET = 5 * 10**4
#: Most literal seed terms, (s+1)b + 1, that an (s,b) system may have.
SEED_BUDGET = 10**6

#: The one guard on growth of every RecurrenceCache in the process.
_growth = RLock()


def check_size(name: str, value: int, what: str, budget: int) -> None:
    """Refuse a requested size below 1 (ValueError, a usage error) or above
    ``budget`` (BudgetExceededError); callers run it before they allocate."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    if value > budget:
        raise BudgetExceededError(what, value, budget)


# Plain result records are NamedTuples; the classes whose constructors
# validate use this base instead, as a tuple base would clash with
# Decomposition.__len__.
class FrozenRecord:
    """==, hash, repr and no assignment, as a frozen dataclass over ``__slots__`` has them.

    A subclass's ``__init__`` checks its input and stores each field once
    with ``self._set(name, value)``.
    """

    __slots__ = ()
    _set = object.__setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through the validating __init__
        return self.__class__, self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class SBParams(FrozenRecord):
    """The pair (s, b): required bin gap and bin width."""

    __slots__ = ("s", "b")

    def __init__(self, s: int, b: int) -> None:
        self._set("s", s)
        self._set("b", b)
        if s < 1 or b < 1:
            raise ValueError(f"s and b must be >= 1, got ({s}, {b})")
        if self.seed_count > SEED_BUDGET:
            raise BudgetExceededError("(s,b) seed size", self.seed_count, SEED_BUDGET)

    @property
    def seed_count(self) -> int:
        """Indices 1 .. (s+1)b + 1 hold the literal values 1, 2, 3, ..."""
        return (self.s + 1) * self.b + 1


class Decomposition(FrozenRecord):
    """A sum of distinct sequence terms, indices strictly decreasing."""

    __slots__ = ("indices", "values")

    def __init__(self, indices: tuple[int, ...], values: tuple[int, ...]) -> None:
        if len(indices) != len(values):
            raise ValueError("indices and values must align")
        if not all(map(gt, indices, indices[1:])):
            raise ValueError("indices must be strictly decreasing")
        self._set("indices", indices)
        self._set("values", values)

    @property
    def total(self) -> int:
        return sum(self.values)

    def __len__(self) -> int:
        return len(self.indices)


class RecurrenceCache:
    """Memoized prefix of a sequence: literal seeds, then each further term
    from ``step(terms_so_far)``, 1-based.

    Every column the toolkit serves is a recurrence of this shape, most of
    them linear with a zero leading term.  Growth is append-only: a term,
    once computed, never changes.  It runs under one process-wide reentrant
    lock, taken only when a term is missing, so threads that grow the same
    prefix, or a step that grows another one, never tear it; an interrupted
    step leaves a shorter prefix that regrows identically.
    """

    __slots__ = ("_terms", "_step", "_budget")

    def __init__(self, seed: Iterable, step: Callable[[list], object]) -> None:
        self._terms = list(seed)
        self._step = step
        # TERMS_BUDGET terms beyond the literal seeds, so a wide seed does not use it up
        self._budget = len(self._terms) - 1 + TERMS_BUDGET

    def __len__(self) -> int:
        return len(self._terms)

    def ensure_count(self, count: int) -> "RecurrenceCache":
        """Grow to at least ``count`` terms.

        Raises BudgetExceededError rather than grow past the budget.
        """
        t = self._terms
        if len(t) < count:  # the one check when nothing is missing
            if count > self._budget:
                raise BudgetExceededError("sequence length", count, self._budget)
            step = self._step
            with _growth:
                while len(t) < count:
                    t.append(step(t))
        return self

    def ensure_value(self, value: int) -> "RecurrenceCache":
        """Grow until the last cached term exceeds ``value``.

        Raises BudgetExceededError rather than grow past the budget.
        """
        t = self._terms
        if t[-1] <= value:  # the one check when nothing is missing
            step = self._step
            with _growth:
                while t[-1] <= value:
                    if len(t) >= self._budget:
                        raise BudgetExceededError("sequence length to pass m", f"more than {len(t)}", len(t))
                    t.append(step(t))
        return self

    def term(self, i: int):
        """a_i."""
        if i < 1:
            raise ValueError(f"index must be >= 1, got {i}")
        self.ensure_count(i)
        return self._terms[i - 1]

    def terms(self, count: int) -> list:
        """The first ``count`` terms as a new list."""
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


_shared: dict[SBParams, RecurrenceCache] = {}


def generate(params: SBParams, count: int) -> RecurrenceCache:
    """The process-wide cache of ``params``, grown to at least ``count`` terms.

    Literal seeds 1 .. (s+1)b + 1, then a_n = a_{n-b} + b * a_{n-(s+1)b}.
    """
    check_size("count", count, "sequence length", TERMS_BUDGET)
    cache = _shared.get(params)
    if cache is None:
        b, far = params.b, (params.s + 1) * params.b
        cache = RecurrenceCache(range(1, params.seed_count + 1), lambda t: t[-b] + b * t[-far])
        cache = _shared.setdefault(params, cache)
    return cache.ensure_count(count)


def bin_of(params: SBParams, index: int) -> int:
    """1-based bin number of a 1-based index: ceil(index / b)."""
    if index < 1:
        raise ValueError(f"index must be >= 1, got {index}")
    return (index + params.b - 1) // params.b


def is_legal_sb(params: SBParams, indices: Iterable[int]) -> bool:
    """Whether the index set is legal: neighbouring bins more than s apart.

    Bins are monotone in index, so neighbours in index order are enough.  Two
    indices in one bin are illegal, so duplicate indices are too.  The empty
    set and singletons are legal.
    """
    idx = sorted(indices)
    if idx and idx[0] < 1:
        raise ValueError(f"indices must be >= 1, got {idx[0]}")
    bins = [bin_of(params, i) for i in idx]
    return all(hi - lo > params.s for lo, hi in zip(bins, bins[1:]))


def decompose(cache: RecurrenceCache, m: int) -> Decomposition:
    """Repeatedly subtract the largest term not exceeding the remainder.

    For an (s,b) cache this is the unique legal decomposition of ``m`` >= 0,
    and m = 0 yields the empty one.  The cache grows once, past m.  Each digit
    bisects the terms up to the last one taken: its successor exceeds m.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    terms = cache.ensure_value(m)._terms
    indices, values = [], []
    i = len(terms)
    while m:
        i = bisect_right(terms, m, 0, i)
        indices.append(i)
        values.append(terms[i - 1])
        m -= terms[i - 1]
    return Decomposition(tuple(indices), tuple(values))
