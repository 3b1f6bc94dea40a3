"""Reference computations the benchmark checks genquilt's outputs against.

Nothing here imports genquilt.  Each result comes from a different route
than the library takes:

* quilt terms: the definition (smallest positive integer with no legal
  decomposition over the earlier terms) for the first twelve terms, then the
  Padovan recurrence q_{n+1} = q_{n-1} + q_{n-2}, not the library's
  q_{n+1} = q_n + q_{n-4};
* (s,b) terms: a_{i+1} counts the legal index sets inside 1..i (each integer
  below a_{i+1} has exactly one), not the library's depth-(s+1)b recurrence;
* decomposition counts: a forward, iterative, memoized walk over states
  (remaining value, occupancy window), checked against exhaustive
  enumeration of legal subsets for small m;
* d/c/b tables: an occupancy automaton run upwards over the indices;
* summand histograms: the closed form b^k * C(n - s(k-1), k);
* root brackets: sign changes of the polynomial under exact rational
  arithmetic, and other root moduli from mpmath.polyroots.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

# Polynomials are coefficient tuples in ascending degree.
QUILT_POLY = (-1, -1, 0, 1)  # x^3 = x + 1, the Padovan recurrence
COUNT_POLY = (-1, 0, -1, 0, 0, 0, -1, 1)  # r^7 - r^6 - r^2 - 1
GREEDY_AUX_POLY = (-1, 0, 0, 0, -1, 1)  # r^5 - r^4 - 1

# lambda_count / lambda_quilt, the growth of the average decomposition count
AVERAGE_GROWTH = 1.0545907283
AVERAGE_GROWTH_TOL = 0.02


# --- quilt --------------------------------------------------------------------


def fq_legal(indices) -> bool:
    """No two indices equal or differing by 1, 3 or 4; not both 1 and 3."""
    idx = sorted(indices)
    if idx and idx[0] < 1:
        return False
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            d = idx[b] - idx[a]
            if d > 4:
                break
            if d != 2:
                return False
    return not (1 in idx and 3 in idx)


def _legal_subsets(n: int):
    """Every legal index set inside 1..n, as descending tuples."""
    out = []

    def rec(i: int, chosen: list[int]) -> None:
        if i == 0:
            out.append(tuple(chosen))
            return
        rec(i - 1, chosen)
        near = chosen[-2:]  # chosen is descending: its smallest entries
        if all(j - i == 2 or j - i > 4 for j in near) and not (i == 1 and 3 in chosen):
            chosen.append(i)
            rec(i - 1, chosen)
            chosen.pop()

    rec(n, [])
    return out


class Quilt:
    """Quilt terms Q[1..] (Q[0] = 0), prefix sums, and the rules built on them."""

    DEFINITIONAL = 12

    def __init__(self, count: int = 40) -> None:
        q = [0]
        while len(q) <= self.DEFINITIONAL:
            sums = {sum(q[i] for i in s) for s in _legal_subsets(len(q) - 1)}
            v = 1
            while v in sums:
                v += 1
            q.append(v)
        for n in range(5, self.DEFINITIONAL):
            if q[n + 1] != q[n - 1] + q[n - 2]:
                raise AssertionError("Padovan recurrence does not continue the definition")
        self.q = q
        self.ensure_count(count)

    def ensure_count(self, n: int) -> None:
        q = self.q
        while len(q) <= n + 5:
            q.append(q[-2] + q[-3])

    def ensure_value(self, m: int) -> None:
        while self.q[-6] <= m:
            self.ensure_count(len(self.q))

    def top_index(self, m: int) -> int:
        """Largest i with q_i <= m."""
        self.ensure_value(m)
        return bisect_right(self.q, m) - 1

    def total(self, indices) -> int:
        q = self.q
        return sum(q[i] for i in indices)

    def greedy(self, m: int, six_as_four_two: bool = False) -> list[int]:
        """Largest term first; Greedy-6 when ``six_as_four_two`` (6 is no term, 5 + 1 illegal)."""
        self.ensure_value(m)
        q, out, hi = self.q, [], len(self.q)
        while m:
            if m == 6 and six_as_four_two:
                return out + [4, 2]
            hi = bisect_right(q, m, 0, hi) - 1
            out.append(hi)
            m -= q[hi]
        return out

    def greedy6(self, m: int) -> list[int]:
        return self.greedy(m, six_as_four_two=True)

    def count(self, m: int) -> int:
        """Legal index sets summing to m, by a forward memoized walk.

        The state after deciding index i is (remaining, window, has3): the
        window holds whether i .. i+3 were taken, has3 whether 3 was.
        Remainders above the sum of all lower terms are dropped.
        """
        if m == 0:
            return 1
        top = self.top_index(m)
        q = self.q
        prefix = [0]
        for i in range(1, top + 1):
            prefix.append(prefix[-1] + q[i])
        states = {(m, 0, False): 1}
        for i in range(top, 0, -1):
            v, bound = q[i], prefix[i - 1]
            nxt: dict = {}
            for (r, win, has3), ways in states.items():
                skip = (r, (win << 1) & 15, has3) if r else (0, 0, False)
                if r <= bound:
                    nxt[skip] = nxt.get(skip, 0) + ways
                # taking i needs i+1, i+3 and i+4 free (bits 0, 2, 3)
                if v <= r and not win & 0b1101 and not (i == 1 and has3):
                    r2 = r - v
                    key = (r2, ((win << 1) | 1) & 15, has3 or i == 3) if r2 else (0, 0, False)
                    if r2 <= bound:
                        nxt[key] = nxt.get(key, 0) + ways
            states = nxt
        return states.get((0, 0, False), 0)

    def enumerated_counts(self, n: int) -> Counter:
        """Decompositions per value over all legal subsets of 1..n (exhaustive)."""
        self.ensure_count(n)
        return Counter(self.total(s) for s in _legal_subsets(n))

    def subset_sums(self, n: int) -> list[int]:
        """Sorted sums of every legal subset of 1..n (exhaustive)."""
        self.ensure_count(n)
        return sorted(self.total(s) for s in _legal_subsets(n))


def greedy6_shape(indices) -> bool:
    """Gaps of at least 5, except an optional final (4, 2) below an index >= 10."""
    idx = list(indices)
    if len(idx) >= 2 and idx[-2:] == [4, 2]:
        head = idx[:-2]
        if head and head[-1] < 10:
            return False
    else:
        head = idx
    return all(a - b >= 5 for a, b in zip(head, head[1:]))


def measure_below(after, before) -> bool:
    """Whether the rewrite engine's termination measure (summand count,
    index sum, count of indices in 2..5) is lexicographically smaller for
    ``after`` than for ``before``."""
    key_a, key_b = (len(after), sum(after)), (len(before), sum(before))
    return key_a < key_b or key_a == key_b and small_below(after, before)


def small_below(after, before) -> bool:
    """The measure's last part: fewer indices in 2..5."""
    return sum(1 for i in after if 2 <= i <= 5) < sum(1 for i in before if 2 <= i <= 5)


def min_summands_table(quilt: Quilt, limit: int) -> list[int]:
    """Coin-change minimum: fewest quilt terms (repeats allowed) summing to m."""
    quilt.ensure_value(limit)
    coins = [v for v in quilt.q[1:] if v <= limit]
    best = [0] + [limit + 1] * limit
    for m in range(1, limit + 1):
        best[m] = 1 + min(best[m - c] for c in coins if c <= m)
    return best


def count_tables(n: int) -> tuple[list[int], list[int], list[int]]:
    """d_k, c_k, b_k for k = 0..n by an occupancy automaton run upwards.

    The state is which of the last four indices were taken (bit 0 = the
    latest); index j may be taken when j-1, j-3 and j-4 were not, and 3 may
    not join 1.
    """
    states = {0: 1}
    d, c, b = [1], [1], [0]
    for j in range(1, n + 1):
        nxt: dict[int, int] = {}
        for win, ways in states.items():
            skip = (win << 1) & 15
            nxt[skip] = nxt.get(skip, 0) + ways
            if not win & 0b1101 and not (j == 3 and win & 0b10):
                take = skip | 1
                nxt[take] = nxt.get(take, 0) + ways
        states = nxt
        d.append(sum(states.values()))
        c.append(sum(w for win, w in states.items() if win & 1))
        b.append(sum(w for win, w in states.items() if win & 1 and win & 4))
    return d, c, b


def greedy_successes(quilt: Quilt, n_max: int, simulate_upto: int = 18) -> list[int]:
    """h_n: integers in [1, q_{n+1}) on which plain greedy is legal.

    Counted directly up to ``simulate_upto``; beyond, extended by
    h_n = h_{n-1} + h_{n-5} + 1 after checking that rule on the counted part.
    """
    quilt.ensure_count(n_max + 1)
    q = quilt.q
    h = [0]
    ok = 0
    m = 1
    for n in range(1, simulate_upto + 1):
        while m < q[n + 1]:
            ok += fq_legal(quilt.greedy(m))
            m += 1
        h.append(ok)
    for n in range(6, simulate_upto + 1):
        if h[n] != h[n - 1] + h[n - 5] + 1:
            raise AssertionError("greedy success rule does not match the simulation")
    for n in range(simulate_upto + 1, n_max + 1):
        h.append(h[n - 1] + h[n - 5] + 1)
    return h[: n_max + 1]


# --- (s,b) bin systems ------------------------------------------------------------


def sb_terms(s: int, b: int, count: int) -> list[int]:
    """a_1..a_count (index 0 = 0 pad).

    F[i] = legal index sets inside 1..i: those without i, plus those with
    i, whose other indices lie s whole bins below i's bin.
    """
    f = [1]
    for i in range(1, count):
        below = max(0, b * (-(-i // b) - s - 1))
        f.append(f[i - 1] + f[below])
    return [0] + f[:count]


def sb_legal(s: int, b: int, indices) -> bool:
    idx = sorted(indices)
    if idx and idx[0] < 1:
        return False
    bins = [(i + b - 1) // b for i in idx]
    return all(hi - lo > s for lo, hi in zip(bins, bins[1:]))


def sb_histogram(s: int, b: int, n: int) -> dict[int, int]:
    """Integers in [0, a_{bn+1}) by summand count: k bins chosen s apart, b ways each."""
    out = {}
    k = 0
    while n - s * (k - 1) >= k:
        out[k] = b**k * math.comb(n - s * max(k - 1, 0), k)
        k += 1
    return out


def moments(hist: dict[int, int]) -> tuple[Fraction, Fraction]:
    total = sum(hist.values())
    mean = Fraction(sum(k * v for k, v in hist.items()), total)
    second = Fraction(sum(k * k * v for k, v in hist.items()), total)
    return mean, second - mean * mean


def ks_distance(hist: dict[int, int]) -> float:
    mean, var = moments(hist)
    mu, sigma = float(mean), math.sqrt(float(var))
    total = sum(hist.values())
    worst, cum = 0.0, 0
    for k in sorted(hist):
        cum += hist[k]
        cdf = 0.5 * (1.0 + math.erf((k + 0.5 - mu) / sigma / math.sqrt(2.0)))
        worst = max(worst, abs(cum / total - cdf))
    return worst


def line_fit(xs, ys) -> tuple[Fraction, Fraction]:
    """Least-squares slope and intercept, exactly."""
    n = len(xs)
    xm = Fraction(sum(xs), n)
    ym = sum(ys, Fraction(0)) / n
    sxx = sum((x - xm) ** 2 for x in xs)
    slope = sum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / sxx
    return slope, ym - slope * xm


# --- roots --------------------------------------------------------------------------


def poly_eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def sign_change(coeffs, lo: Fraction, hi: Fraction) -> bool:
    """Whether the polynomial takes opposite signs at lo and hi (exactly)."""
    a, b = poly_eval(coeffs, lo), poly_eval(coeffs, hi)
    return (a < 0 < b) or (b < 0 < a)


def root_bracket(coeffs, bits: int = 64) -> tuple[Fraction, Fraction]:
    """[lo, hi] of width at most 2^-bits around the first root above 1."""
    lo = Fraction(1)
    while not sign_change(coeffs, lo, lo + 1):
        lo += 1
        if poly_eval(coeffs, lo) == 0:
            return lo, lo
    hi = lo + 1
    neg_lo = poly_eval(coeffs, lo) < 0
    for _ in range(bits):
        mid = (lo + hi) / 2
        value = poly_eval(coeffs, mid)
        if value == 0:
            return mid, mid
        if (value < 0) == neg_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def other_moduli(coeffs, root: float) -> float:
    """Largest modulus among the roots other than ``root`` (mpmath.polyroots)."""
    import mpmath

    with mpmath.workdps(50):
        roots = mpmath.polyroots(list(reversed(coeffs)), maxsteps=400, extraprec=400)
        rest = sorted(roots, key=lambda z: abs(z - root))[1:]
        return float(max(abs(z) for z in rest)) if rest else 0.0


def sb_char(s: int, b: int) -> tuple[int, ...]:
    """x^{(s+1)b} - x^{sb} - b."""
    c = [0] * ((s + 1) * b + 1)
    c[-1] += 1
    c[s * b] -= 1
    c[0] -= b
    return tuple(c)


def sb_aux(s: int, b: int) -> tuple[int, ...]:
    """y^{s+1} - y^s - b, whose roots are the b-th powers of the bin system's."""
    c = [0] * (s + 2)
    c[-1] += 1
    c[s] -= 1
    c[0] -= b
    return tuple(c)


def decimal(value: Fraction, places: int) -> str:
    """Fixed-point decimal rounded half up (value >= 0)."""
    units = math.floor(value * 10**places + Fraction(1, 2))
    digits = str(units).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}" if places else digits
