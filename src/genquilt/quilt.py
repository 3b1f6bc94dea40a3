"""The Fibonacci Quilt sequence and its legality rule.

The sequence 1, 2, 3, 4, 5, 7, 9, 12, 16, 21, ... is built so that each term
is the smallest positive integer with no legal decomposition over the earlier
terms, where a set of summand indices is legal iff no two indices differ by
1, 3, or 4 and the pair {1, 3} never appears together.  (Index difference 2
is allowed; 1 and 3 are the lone exception, inherited from the start of the
quilt spiral.)  Apart from a few initial terms this is the Padovan sequence,
OEIS A000931.

The rule is stated once, as a 16-state window automaton: ``is_fq_legal``
runs it over one index set, and ``quilt_count`` sweeps it over all of them.
"""

from __future__ import annotations

from typing import Iterable

from .generacci import TERMS_BUDGET, RecurrenceCache, check_size

#: Index differences that make a pair of summands illegal.
FORBIDDEN_DIFFS = frozenset({1, 3, 4})

# The legality automaton, the rule's one statement.  It decides indices from
# the top down; bit d-1 of the 4-bit window mask flags index i+d as taken
# when index i is decided.  SKIP[mask] and TAKE[mask] are the masks after
# skipping or taking index i, and a take of -1 is illegal.  At index 1, bit 1
# is index 3, and the pair {1, 3} is illegal.
SKIP = tuple((mask << 1) & 0b1111 for mask in range(16))
TAKE = tuple(
    -1 if any(mask >> (d - 1) & 1 for d in FORBIDDEN_DIFFS) else skip | 1
    for mask, skip in enumerate(SKIP)
)
TAKE_AT_1 = tuple(-1 if mask & 0b10 else take for mask, take in enumerate(TAKE))


#: The quilt sequence, 1-based, one cache per process.  1..5 are forced one
#: by one; 6 = 4 + 2 is already legal, so the sixth term is 7.  From there on
#: q_{n+1} = q_n + q_{n-4}.
_shared = RecurrenceCache((1, 2, 3, 4, 5, 7), lambda t: t[-1] + t[-5])


def shared_cache() -> RecurrenceCache:
    """Process-wide cache of the quilt sequence, 1-based."""
    return _shared


def quilt_terms(count: int) -> RecurrenceCache:
    """The process-wide cache, grown to at least the first ``count`` terms."""
    check_size("count", count, "sequence length", TERMS_BUDGET)
    return _shared.ensure_count(count)


def is_fq_legal(indices: Iterable[int]) -> bool:
    """Legality of a set of 1-based indices: the automaton, run top down.

    Duplicates are illegal, as is any pair differing by 1, 3, or 4, and the
    specific pair {1, 3}.  The empty set is legal.
    """
    idx = sorted(indices, reverse=True)
    if idx and idx[-1] < 1:
        raise ValueError(f"indices must be >= 1, got {idx[-1]}")
    mask, at = 0, idx[0] if idx else 0  # the window of index ``at``
    for i in idx:
        skipped = at - i  # indices skipped since the last take
        if skipped < 0:  # a duplicate
            return False
        mask = (TAKE_AT_1 if i == 1 else TAKE)[(mask << skipped) & 0b1111 if skipped < 4 else 0]
        if mask < 0:
            return False
        at = i - 1
    return True
