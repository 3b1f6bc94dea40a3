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

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import oracle
from .errors import BudgetExceededError
from .generacci import Decomposition, greedy_decomposition
from .quilt import is_fq_legal, shared_cache

SIMULATION_BUDGET = 25
SUCCESS_TABLE_BUDGET = 10**4  # each rho_n reduces a fraction of about n/8 digits


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

    @property
    def n_max(self) -> int:
        return len(self.h) - 1


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
    """Greedy with one override: a remainder of exactly 6 becomes q_4 + q_2."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return greedy_decomposition(shared_cache(), m, greedy6=True)


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
    if t >= 2 and idx[-2] == 4 and idx[-1] == 2:
        prefix_ok = all(idx[i] - idx[i + 1] >= 5 for i in range(t - 3))
        third_ok = t < 3 or idx[-3] >= 10
        cond2 = prefix_ok and third_ok
    return cond1, cond2


def greedy_failures(limit: int) -> list[int]:
    """All m in [1, limit] where plain greedy yields an illegal decomposition."""
    return [m for m in range(1, limit + 1) if not greedy_decompose(m).legal]


def success_table(n_max: int, mode: str = "recurrence") -> SuccessTable:
    """h_n and rho_n for n = 1..n_max.

    Recurrence mode: h_k = k for k <= 5, then h_n = h_{n-1} + h_{n-5} + 1.
    Simulation mode: count the greedy successes directly (budget-capped).
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if mode not in ("recurrence", "simulation"):
        raise ValueError(f"unknown mode {mode!r}")
    if n_max > SUCCESS_TABLE_BUDGET:
        raise BudgetExceededError("success table size", n_max, SUCCESS_TABLE_BUDGET)
    cache = shared_cache()
    if mode == "recurrence":
        h = [0] + list(range(1, min(n_max, 5) + 1))
        for n in range(6, n_max + 1):
            h.append(h[n - 1] + h[n - 5] + 1)
    else:
        if n_max > SIMULATION_BUDGET:
            raise BudgetExceededError("greedy success simulation", n_max, SIMULATION_BUDGET)
        h = [0] * (n_max + 1)
        count = 0
        m = 1
        for n in range(1, n_max + 1):
            upper = cache.term(n + 1)
            while m < upper:
                if greedy_decompose(m).legal:
                    count += 1
                m += 1
            h[n] = count
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
    return oracle.min_summands_dp(m)


# --- the rewrite engine -----------------------------------------------------
#
# Anchored at the larger index n, the five moves are:
#   1: 2 q_n            -> q_{n+2} + q_{n-5}   (n >= 7, small cases below)
#   2: q_n + q_{n-1}    -> q_{n+2}             (n >= 3; the n = 2 pair gives q_3)
#   3: q_n + q_{n-2}    -> q_{n+1} + q_{n-5}   (n >= 8, small cases below)
#   4: q_n + q_{n-3}    -> q_{n+1} + q_{n-8}   (n >= 10, small cases below)
#   5: q_n + q_{n-4}    -> q_{n+1}             (n >= 6; (5,1) has no move)
#
# Small-case tables; None as second output index means the move merges two
# summands into one.  The (5,3) case is q_6 + q_1: the sums 5 + 3 and 7 + 1
# are both 8, and sum preservation is non-negotiable here.
_SMALL_1 = {6: (8, 2), 5: (7, 1), 4: (6, 1), 3: (5, 1), 2: (4, None), 1: (2, None)}
_SMALL_3 = {7: (8, 2), 6: (7, 2), 5: (6, 1), 4: (5, 1), 3: (4, None)}
_SMALL_4 = {9: (10, 2), 8: (9, 1), 7: (8, 1), 6: (7, 1), 5: (6, None), 4: (5, None)}


def _apply_move(move: int, n: int, counts: dict[int, int]) -> None:
    def sub(i: int, k: int = 1) -> None:
        counts[i] -= k
        if not counts[i]:
            del counts[i]

    def add(i: int | None) -> None:
        if i is not None:
            counts[i] = counts.get(i, 0) + 1

    if move == 1:
        sub(n, 2)
        hi, lo = (n + 2, n - 5) if n >= 7 else _SMALL_1[n]
        add(hi)
        add(lo)
    elif move == 2:
        sub(n)
        sub(n - 1)
        add(n + 2 if n >= 3 else 3)
    elif move == 3:
        sub(n)
        sub(n - 2)
        hi, lo = (n + 1, n - 5) if n >= 8 else _SMALL_3[n]
        add(hi)
        add(lo)
    elif move == 4:
        sub(n)
        sub(n - 3)
        hi, lo = (n + 1, n - 8) if n >= 10 else _SMALL_4[n]
        add(hi)
        add(lo)
    else:
        sub(n)
        sub(n - 4)
        add(n + 1)


def _measure(counts: dict[int, int]) -> tuple[int, int, int]:
    return (
        sum(counts.values()),
        sum(i * c for i, c in counts.items()),
        sum(c for i, c in counts.items() if 2 <= i <= 5),
    )


def _find_move(counts: dict[int, int], scan_from: int) -> tuple[int, int] | None:
    """First applicable (move, anchor), scanning anchors from the top down."""
    for n in range(scan_from, 0, -1):
        if n not in counts:
            continue
        if counts[n] >= 2:
            return 1, n
        if n >= 2 and n - 1 in counts:
            return 2, n
        if n >= 3 and n - 2 in counts:
            return 3, n
        if n >= 4 and n - 3 in counts:
            return 4, n
        if n >= 6 and n - 4 in counts:
            return 5, n
    return None


def _multiset_tuple(counts: dict[int, int]) -> tuple[int, ...]:
    out: list[int] = []
    for i in sorted(counts, reverse=True):
        out.extend([i] * counts[i])
    return tuple(out)


def normalize_to_greedy6(indices: Iterable[int]) -> MoveTrace:
    """Rewrite any multiset of quilt indices to its Greedy-6 normal form.

    Moves are applied deterministically: anchors scanned from the largest
    index down, move numbers tried in order at each anchor.  A move at anchor
    n creates nothing above n + 2 and cannot wake any anchor above n + 6, so
    the scan restarts there instead of at the top.  The terminal (5,1) ->
    (4,2) swap runs only once no move applies.  Every step is checked to
    preserve the sum and strictly shrink the termination measure.
    """
    cache = shared_cache()
    counts: dict[int, int] = {}
    for i in indices:
        if i < 1:
            raise ValueError(f"indices must be >= 1, got {i}")
        counts[i] = counts.get(i, 0) + 1
    if not counts:
        return MoveTrace([], Decomposition((), ()))

    if all(c == 1 for c in counts.values()):
        # Inputs already in normal form stay put.  Without this check the
        # raw move relation would take a (4,2) tail on a round trip through
        # (5,1) and back via the terminal swap.
        idx = _multiset_tuple(counts)
        dec = Decomposition(idx, tuple(cache.term(i) for i in idx))
        cond1, cond2 = structure_conditions(dec)
        if cond1 != cond2:
            return MoveTrace([], dec)

    total = sum(cache.term(i) * c for i, c in counts.items())
    steps: list[MoveStep] = []
    measure = _measure(counts)
    scan_from = max(counts)
    while True:
        found = _find_move(counts, scan_from)
        if found is None:
            break
        move, n = found
        before = _multiset_tuple(counts)
        _apply_move(move, n, counts)
        after = _multiset_tuple(counts)
        new_measure = _measure(counts)
        new_total = sum(cache.term(i) * c for i, c in counts.items())
        if new_total != total:
            raise AssertionError(f"move {move} at {n} changed the sum: {before} -> {after}")
        if not new_measure < measure:
            raise AssertionError(f"move {move} at {n} did not shrink the measure")
        measure = new_measure
        steps.append(MoveStep(str(move), before, after))
        scan_from = min(max(counts), n + 6)

    if 5 in counts and 1 in counts:
        before = _multiset_tuple(counts)
        _apply_move_tail(counts)
        steps.append(MoveStep("tail", before, _multiset_tuple(counts)))

    final_idx = _multiset_tuple(counts)
    final = Decomposition(final_idx, tuple(cache.term(i) for i in final_idx))
    return MoveTrace(steps, final)


def _apply_move_tail(counts: dict[int, int]) -> None:
    # q_5 + q_1 = q_4 + q_2 = 6; legal tail shape wants (4, 2)
    for i in (5, 1):
        counts[i] -= 1
        if not counts[i]:
            del counts[i]
    for i in (4, 2):
        counts[i] = counts.get(i, 0) + 1
