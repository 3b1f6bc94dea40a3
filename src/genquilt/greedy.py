"""Greedy quilt decompositions, success counting, and the rewrite engine.

Plain greedy (largest term first) lands on a legal decomposition for roughly
92.6% of integers; the first failure is 6.  Greedy-6 patches the single bad
case by decomposing 6 as q_4 + q_2 whenever it appears as a remainder, and
the result is always legal, structurally rigid (consecutive index gaps of at
least 5, except for an optional trailing 4,2 pair below a prefix ending at
10 or higher), and uses the minimum possible number of summands.

Minimality is witnessed constructively: five sum-preserving rewrite moves
turn ANY multiset of quilt terms into the Greedy-6 decomposition without ever
increasing the summand count.  Termination is guaranteed by the lexicographic
measure (summand count, index sum, count of indices in {2..5}), which every
step strictly decreases.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import neg
from typing import Iterable

from . import oracle
from .errors import BudgetExceededError
from .generacci import Decomposition, greedy_decomposition
from .quilt import is_fq_legal, shared_cache

SUCCESS_TABLE_BUDGET = 10**4  # each rho_n reduces a fraction of about n/8 digits
#: Most parts normalize_to_greedy6 takes: a trace holds about as many steps as
#: parts, each a tuple of up to that many indices, so its size is quadratic.
NORMALIZE_PARTS_BUDGET = 2000
#: Largest index normalize_to_greedy6 takes; q_i has about i/8 digits.
NORMALIZE_INDEX_BUDGET = 10**4
#: The removed and added indices of the swap q_5 + q_1 -> q_4 + q_2: both
#: pairs sum to 6, and only the second is legal.  Greedy-6 ends with it, and
#: the rewrite engine applies it as its terminal "tail" move.
_TAIL = ((5, 1), (4, 2))


@dataclass(frozen=True)
class GreedyOutcome:
    decomposition: Decomposition
    legal: bool


@dataclass
class SuccessTable:
    """h[n] = integers in [1, q_{n+1}) where plain greedy succeeds; rho[n] = h_n/(q_{n+1}-1).

    Index 0 is a zero pad so h[n] is h_n.
    """

    h: list[int]
    rho: list[Fraction]


@dataclass(frozen=True)
class MoveStep:
    move: str
    before: tuple[int, ...]
    after: tuple[int, ...]


@dataclass
class MoveTrace:
    steps: list[MoveStep]
    final: Decomposition


def greedy_decompose(m: int) -> GreedyOutcome:
    """Repeatedly subtract the largest q_i <= remainder; flag legality."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    dec = greedy_decomposition(shared_cache(), m)
    return GreedyOutcome(dec, is_fq_legal(dec.indices))


def greedy6_decompose(m: int) -> Decomposition:
    """Greedy with one override: a remainder of exactly 6 becomes q_4 + q_2.

    A remainder whose largest term is q_5 is 5 or 6, and only 6 leaves a 1,
    so plain greedy ends in (5, 1) exactly when it meets a remainder of 6.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    cache = shared_cache()
    dec = greedy_decomposition(cache, m)
    if dec.indices[-2:] != _TAIL[0]:
        return dec
    return Decomposition(dec.indices[:-2] + _TAIL[1], dec.values[:-2] + tuple(map(cache.term, _TAIL[1])))


def structure_conditions(dec: Decomposition) -> tuple[bool, bool]:
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
    if idx[-2:] == _TAIL[1]:
        prefix_ok = all(idx[i] - idx[i + 1] >= 5 for i in range(t - 3))
        third_ok = t < 3 or idx[-3] >= 10
        cond2 = prefix_ok and third_ok
    return cond1, cond2


def greedy_failures(limit: int) -> list[int]:
    """All m in [1, limit] where plain greedy yields an illegal decomposition."""
    return [m for m in range(1, limit + 1) if not greedy_decompose(m).legal]


def success_table(n_max: int) -> SuccessTable:
    """h_n and rho_n for n = 1..n_max: h_k = k for k <= 5, then h_n = h_{n-1} + h_{n-5} + 1.

    Counted directly, h_n is q_{n+1} - 1 less the greedy failures below q_{n+1}.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max > SUCCESS_TABLE_BUDGET:
        raise BudgetExceededError("success table size", n_max, SUCCESS_TABLE_BUDGET)
    cache = shared_cache()
    h = [0] + list(range(1, min(n_max, 5) + 1))
    for n in range(6, n_max + 1):
        h.append(h[n - 1] + h[n - 5] + 1)
    rho = [Fraction(0)] + [Fraction(h[n], cache.term(n + 1) - 1) for n in range(1, n_max + 1)]
    return SuccessTable(h, rho)


def success_ratio_limit(n: int) -> float:
    """rho_n from exact integers; approaches about 0.92627 as n grows."""
    if n < 20:
        raise ValueError(f"n must be >= 20 for a limit estimate, got {n}")
    return float(success_table(n).rho[n])


def min_summands(m: int) -> int:
    """Fewest quilt terms (repetition allowed) summing to m, by coin-change DP.

    Matching the Greedy-6 summand count is asserted in tests, never assumed.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return oracle.min_summands_table(m)[m]


# --- the rewrite engine -----------------------------------------------------
#
# Move k takes an anchor n and the next-lower entry of the multiset, at
# index gap k - 1 (so move 1 takes a repeated index).  The five moves are:
#   1: 2 q_n            -> q_{n+2} + q_{n-5}   (n >= 7, small cases below)
#   2: q_n + q_{n-1}    -> q_{n+2}             (n >= 3; the n = 2 pair gives q_3)
#   3: q_n + q_{n-2}    -> q_{n+1} + q_{n-5}   (n >= 8, small cases below)
#   4: q_n + q_{n-3}    -> q_{n+1} + q_{n-8}   (n >= 10, small cases below)
#   5: q_n + q_{n-4}    -> q_{n+1}             (n >= 6; (5,1) has no move)
# plus the terminal swap q_5 + q_1 -> q_4 + q_2, named "tail".
#
# Small-case tables of the indices added; a one-element entry means the move
# merges two summands into one.  The (5,3) case is q_6 + q_1: the sums 5 + 3
# and 7 + 1 are both 8, and sum preservation is non-negotiable here.
#
# Each step is checked locally.  A move removes a fixed pair of indices and
# adds a fixed one- or two-index tuple, and the rest of the multiset is left
# alone.  So the whole-multiset sum is unchanged exactly when the removed
# terms sum to the added ones.  Likewise the measure (summand count, index
# sum, count of indices in {2..5}) changes by the added tuple's measure minus
# the removed pair's, so it shrinks lexicographically exactly when the added
# tuple's measure is below the removed pair's.
_SMALL_1 = {6: (8, 2), 5: (7, 1), 4: (6, 1), 3: (5, 1), 2: (4,), 1: (2,)}
_SMALL_3 = {7: (8, 2), 6: (7, 2), 5: (6, 1), 4: (5, 1), 3: (4,)}
_SMALL_4 = {9: (10, 2), 8: (9, 1), 7: (8, 1), 6: (7, 1), 5: (6,), 4: (5,)}


def _move_parts(move: str, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The indices ``move`` at anchor n removes, and the indices it adds."""
    if move == "1":
        return (n, n), (n + 2, n - 5) if n >= 7 else _SMALL_1[n]
    if move == "2":
        return (n, n - 1), (n + 2 if n >= 3 else 3,)
    if move == "3":
        return (n, n - 2), (n + 1, n - 5) if n >= 8 else _SMALL_3[n]
    if move == "4":
        return (n, n - 3), (n + 1, n - 8) if n >= 10 else _SMALL_4[n]
    if move == "5":
        return (n, n - 4), (n + 1,)
    return _TAIL


_TWO_TO_FIVE = frozenset(range(2, 6))


def _measure(parts: tuple[int, ...]) -> tuple[int, int, int]:
    return len(parts), sum(parts), sum(map(_TWO_TO_FIVE.__contains__, parts))


def _find_move(state: tuple[int, ...], scan_from: int) -> tuple[str, int] | None:
    """First applicable (move, anchor) in the descending ``state``, anchors from ``scan_from`` down."""
    start = bisect_left(state, -scan_from, key=neg)
    for n, nxt in zip(islice(state, start, None), islice(state, start + 1, None)):
        gap = n - nxt
        if gap < 4 or (gap == 4 and n >= 6):
            return str(gap + 1), n
    return None


def _step(move: str, n: int, terms: list[int], before: tuple[int, ...]) -> MoveStep:
    """Apply one move to the sorted tuple ``before``, checked."""
    gone, new = _move_parts(move, n)
    after = list(before)
    for i in gone:
        del after[bisect_left(after, -i, key=neg)]
    for i in new:
        insort(after, i, key=neg)
    step = MoveStep(move, before, tuple(after))
    if sum(map(terms.__getitem__, gone)) != sum(map(terms.__getitem__, new)):
        raise AssertionError(f"move {move} at {n} changed the sum: {before} -> {step.after}")
    if move != "tail" and not _measure(new) < _measure(gone):
        raise AssertionError(f"move {move} at {n} did not shrink the measure")
    return step


def normalize_to_greedy6(indices: Iterable[int]) -> MoveTrace:
    """Rewrite any multiset of quilt indices to its Greedy-6 normal form.

    The multiset is kept as one descending tuple.  Moves are applied
    deterministically: adjacent entries are scanned from the largest index
    down, and the first anchor n whose next-lower entry lies at index gap
    k - 1 takes move k.  A move at anchor n creates nothing above n + 2 and
    cannot wake any anchor above n + 6, so the scan restarts there instead
    of at the top.  The terminal (5,1) -> (4,2) swap runs only once no move
    applies.

    Every step is checked in exact arithmetic against the pair of index
    tuples it swaps: the removed and added terms must have equal sums (which
    is the same as the whole multiset keeping its sum), and every step but
    the tail must strictly shrink the termination measure.  A failed check
    raises AssertionError.  Each step's ``after`` tuple is its ``before``
    tuple with the moved indices taken out and put in, and is the next
    step's ``before``.

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
    if len(set(parts)) == len(parts):
        # Inputs already in normal form stay put.  Without this check the
        # raw move relation would take a (4,2) tail on a round trip through
        # (5,1) and back via the terminal swap.
        dec = Decomposition(parts, tuple(map(cache.term, parts)))
        cond1, cond2 = structure_conditions(dec)
        if cond1 != cond2:
            return MoveTrace([], dec)

    # Each step keeps the sum, so no index ever present exceeds the largest
    # index whose term fits in that sum, and a move adds at most two above its
    # anchor: terms[i] is q_i for every index a step can touch.
    top = cache.index_of_largest_leq(sum(map(cache.term, parts))) + 2
    terms = [0, *cache.terms(top)]
    steps: list[MoveStep] = []
    state = parts
    scan_from = parts[0]
    while (found := _find_move(state, scan_from)) is not None:
        move, n = found
        steps.append(_step(move, n, terms, state))
        state = steps[-1].after
        scan_from = n + 6
    # With no move left no index repeats and the entry after a 5 is at most
    # 1, so a 5 and a 1 together can only be the last two entries.
    if state[-2:] == _TAIL[0]:
        steps.append(_step("tail", 5, terms, state))
        state = steps[-1].after
    return MoveTrace(steps, Decomposition(state, tuple(map(terms.__getitem__, state))))
