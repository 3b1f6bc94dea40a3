"""The four workloads: inputs drawn from the seed, the operations, their checks.

A workload hands out rounds.  Every round holds the same operations in the
same numbers (its inputs are fresh draws from the seeded stream), so the
share of operations that fail is the same in every run.  An operation's
check returns True for a correct output and False for an output showing a
known program fault; it raises Wrong for any other incorrect output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from bisect import bisect_left
from collections import Counter
from fractions import Fraction

import reference as ref
from program_setup import (
    COUNTING_MAX_DIGITS,
    DECOMPOSE_MAX_DIGITS,
    SB_GRID,
    SUCCESS_TABLE_MAX_N,
    program_setup,
)
from tracing import direct

from genquilt import BudgetExceededError, generacci, greedy, numerics, quilt, quilt_count, stats


class Wrong(Exception):
    """An output that fails its check."""


def need(cond, what: str) -> None:
    if not cond:
        raise Wrong(what)


class Op:
    __slots__ = ("kind", "run", "check", "may_raise")

    def __init__(self, kind, run, check, may_raise=()):
        self.kind = kind
        self.run = run
        self.check = check
        self.may_raise = may_raise


class Workload:
    name = ""
    #: op_tail_ms is this nearest-rank percentile of the run's latencies
    tail_pct = 99.0
    in_process = True

    def __init__(self, seed: int, tracer, src: str) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tracer = tracer
        self.call = tracer.call if tracer else direct
        self.counters: dict[str, int] = {}
        self.caches = program_setup(self.name) if self.in_process else {}

    def round(self) -> list[Op]:
        raise NotImplementedError


def _digits(rng: random.Random, lo: int, hi: int) -> int:
    """A uniform integer whose digit count is uniform on [lo, hi]."""
    d = rng.randint(lo, hi)
    return rng.randrange(10 ** (d - 1), 10**d)


def _check_sb_decomposition(terms, s, b, m, dec) -> bool:
    """Legal, strictly decreasing and summing to m: the unique decomposition."""
    idx = list(dec.indices)
    need(all(x > y for x, y in zip(idx, idx[1:])), "indices not strictly decreasing")
    need(list(dec.values) == [terms[i] for i in idx], "values are not the (s,b) terms")
    need(sum(dec.values) == m, "decomposition does not sum to m")
    need(ref.sb_legal(s, b, idx), "decomposition is not (s,b)-legal")
    return True


def _sb_terms_past(s: int, b: int, limit: int) -> list[int]:
    count = 64
    while True:
        terms = ref.sb_terms(s, b, count)
        if terms[-1] > limit:
            return terms
        count *= 2


# --- decompose ----------------------------------------------------------------------


class Decompose(Workload):
    """Greedy, Greedy-6 and (s,b) decompositions of 20-300 digit integers, and
    normalization of illegal multisets: a few parts with m <= 10^4, and
    hundreds of small parts."""

    name = "decompose"
    tail_pct = 99.9
    SMALL_M = 10**4
    # the engine's per-step work grows with the part count: 200 parts take
    # tens of milliseconds, the slowest operation of the round
    MANY_PARTS = 200

    def __init__(self, seed, tracer, src):
        super().__init__(seed, tracer, src)
        self.q = ref.Quilt()
        self.q.ensure_value(10**DECOMPOSE_MAX_DIGITS)
        self.sb = {p: _sb_terms_past(*p, 10**DECOMPOSE_MAX_DIGITS) for p in SB_GRID}
        self.min_terms = ref.min_summands_table(self.q, self.SMALL_M)

    def round(self) -> list[Op]:
        rng, call = self.rng, self.call
        ops = []
        for _ in range(4):
            m = _digits(rng, 20, DECOMPOSE_MAX_DIGITS)
            ops.append(Op("greedy", lambda m=m: call("greedy.greedy_decompose", greedy.greedy_decompose, m),
                          lambda out, m=m: self.check_greedy(m, out)))
            m = _digits(rng, 20, DECOMPOSE_MAX_DIGITS)
            ops.append(Op("greedy6", lambda m=m: call("greedy.greedy6_decompose", greedy.greedy6_decompose, m),
                          lambda out, m=m: self.check_greedy6(m, out)))
            m = _digits(rng, 20, DECOMPOSE_MAX_DIGITS)
            p = rng.choice(SB_GRID)
            cache = self.caches[p]
            ops.append(Op("sb", lambda m=m, c=cache: call("generacci.decompose", generacci.decompose, c, m),
                          lambda out, m=m, p=p: _check_sb_decomposition(self.sb[p], *p, m, out)))
            ops.append(self.normalize_op("normalize.few", self.few_parts()))
        ops.append(self.normalize_op("normalize.many", [rng.randint(1, 10) for _ in range(self.MANY_PARTS)]))
        return ops

    def few_parts(self) -> list[int]:
        """2-6 parts, illegal, summing to at most 10^4."""
        rng = self.rng
        while True:
            parts = [rng.randint(1, 25) for _ in range(rng.randint(2, 6))]
            if self.q.total(parts) <= self.SMALL_M and not ref.fq_legal(parts):
                return parts

    def normalize_op(self, kind: str, parts: list[int]) -> Op:
        call = self.call

        def run():
            legal = call("quilt.is_fq_legal", quilt.is_fq_legal, parts)
            return legal, call("greedy.normalize_to_greedy6", greedy.normalize_to_greedy6, parts)

        return Op(kind, run, lambda out: self.check_normalize(parts, out))

    def check_greedy(self, m, outcome) -> bool:
        idx = list(outcome.decomposition.indices)
        need(idx == self.q.greedy(m), "not the greedy indices")
        need(list(outcome.decomposition.values) == [self.q.q[i] for i in idx], "values are not quilt terms")
        need(sum(outcome.decomposition.values) == m, "greedy does not sum to m")
        need(outcome.legal == ref.fq_legal(idx), "wrong legality flag")
        return True

    def check_greedy6(self, m, dec) -> bool:
        idx = list(dec.indices)
        need(idx == self.q.greedy6(m), "not the Greedy-6 indices")
        need(list(dec.values) == [self.q.q[i] for i in idx], "values are not quilt terms")
        need(sum(dec.values) == m, "Greedy-6 does not sum to m")
        need(ref.fq_legal(idx), "Greedy-6 result is illegal")
        need(ref.greedy6_shape(idx), "Greedy-6 result lacks the Greedy-6 shape")
        return True

    def check_normalize(self, parts, out) -> bool:
        legal, trace = out
        need(legal == ref.fq_legal(parts), "is_fq_legal disagrees with the quilt rule")
        terms = self.q.q
        m = self.q.total(parts)
        prev = tuple(sorted(parts, reverse=True))
        prev_key = (len(prev), sum(prev))
        for step in trace.steps:
            need(step.before == prev, "trace steps do not chain")
            after = step.after
            key = (len(after), sum(after))
            need(sum(map(terms.__getitem__, after)) == m, f"move {step.move} changed the sum")
            if step.move == "tail":
                gone, new = Counter(prev), Counter(after)
                need(gone - new == Counter((5, 1)) and new - gone == Counter((4, 2)), "tail step is not 5+1 -> 4+2")
            else:
                need(key < prev_key or key == prev_key and ref.small_below(after, prev),
                     f"move {step.move} did not shrink the measure")
            prev, prev_key = after, key
        final = list(trace.final.indices)
        need(tuple(final) == prev, "final decomposition is not the last step's result")
        need(final == self.q.greedy6(m), "normalization did not reach Greedy-6")
        need(list(trace.final.values) == [terms[i] for i in final], "final values are not quilt terms")
        need(len(final) <= len(parts), "normalization increased the summand count")
        need(len(final) == self.min_terms[m], "Greedy-6 length is not the coin-change minimum")
        self.counters["greedy.moves_applied"] = self.counters.get("greedy.moves_applied", 0) + len(trace.steps)
        return True


# --- counting -----------------------------------------------------------------------


class Counting(Workload):
    """count_decompositions on 10-13 digit m, on 8-9 digit quilt terms and
    near-terms, and on fixed m of 140+ digits; exact averages; d/c/b tables."""

    name = "counting"
    tail_pct = 99.0
    TERM_INDICES = (58, 72)  # q_58 .. q_72 have 8 or 9 digits
    AVERAGE_N = (20, quilt_count.AVERAGE_BUDGET)
    TABLE_N = (1000, 5000)

    def __init__(self, seed, tracer, src):
        super().__init__(seed, tracer, src)
        self.q = ref.Quilt()
        self.q.ensure_count(1200)
        # Fixed, not drawn: count_decompositions raises RecursionError on each.
        self.huge = (self.q.q[1200], 10**139 + 1, 7 * 10**165 + 3)
        if max(self.huge) >= 10**COUNTING_MAX_DIGITS:
            raise ValueError("set-up does not cover the largest input")
        self.sums = self.q.subset_sums(self.AVERAGE_N[1])
        self.tables = ref.count_tables(self.TABLE_N[1])

    def count_op(self, kind: str, m: int, may_raise=()) -> Op:
        call = self.call
        return Op(kind, lambda: call("quilt_count.count_decompositions", quilt_count.count_decompositions, m),
                  lambda out: self.check_count(m, out), may_raise)

    def round(self) -> list[Op]:
        rng, call, q = self.rng, self.call, self.q.q
        ops = [self.count_op("count.random", rng.randrange(10 ** (d - 1), 10**d)) for d in range(10, 14) for _ in range(6)]
        for _ in range(6):
            ops.append(self.count_op("count.term", q[rng.randint(*self.TERM_INDICES)]))
            delta = rng.choice((-1, 1)) * rng.randint(1, 40)
            ops.append(self.count_op("count.near", q[rng.randint(*self.TERM_INDICES)] + delta))
        # one average at the budget, the slowest operation of the round, and one below it
        for n in (self.AVERAGE_N[1], rng.randint(self.AVERAGE_N[0], self.AVERAGE_N[1] - 1)):
            ops.append(Op("average", lambda n=n: call("quilt_count.average_decompositions", quilt_count.average_decompositions, n),
                          lambda out, n=n: self.check_average(n, out)))
        k = rng.randint(*self.TABLE_N)
        ops.append(Op("tables", lambda: call("quilt_count.count_tables", quilt_count.count_tables, k),
                      lambda out: self.check_tables(k, out)))
        for m in self.huge:
            ops.append(self.count_op("count.huge", m, (RecursionError, BudgetExceededError)))
        rng.shuffle(ops)
        return ops

    def check_count(self, m, out) -> bool:
        need(out == self.q.count(m), f"count of {m} differs from the memoized reference")
        return True

    def total_below(self, n: int) -> int:
        """Legal subsets with value below q_{n+1} (any index above n is too big)."""
        return bisect_left(self.sums, self.q.q[n + 1])

    def check_average(self, n, rep) -> bool:
        q = self.q.q
        total = self.total_below(n)
        need(rep.n == n and rep.total == total, "averages total differs from enumeration")
        need(rep.average == Fraction(total, q[n + 1]), "average is not total / q_{n+1}")
        growth = rep.average / Fraction(self.total_below(n - 1), q[n])
        need(abs(rep.exponent_estimate - float(growth)) <= 1e-12, "exponent estimate is not the ratio")
        need(abs(rep.exponent_estimate - ref.AVERAGE_GROWTH) <= ref.AVERAGE_GROWTH_TOL, "growth ratio off 1.05459")
        return True

    def check_tables(self, n, t) -> bool:
        d, c, b = self.tables
        need(t.d == d[: n + 1] and t.c == c[: n + 1] and t.b == b[: n + 1], "d/c/b differ from the automaton")
        return True


# --- analysis -----------------------------------------------------------------------


def _tol(rng: random.Random) -> float:
    return 10.0 ** -rng.randint(12, 60)


def _check_leading_constant(terms, lam, stride, value, residual, rel) -> bool:
    """value = terms[n] / lam^n and residual = the spread of that ratio over
    the last quartile (one residue class mod stride), in exact rationals."""
    n = len(terms)
    lam_f = Fraction(lam)
    ratios = [Fraction(terms[k - 1]) / lam_f**k for k in range(n, max(1, (3 * n) // 4) - 1, -stride)]
    want = float(ratios[0])
    need(abs(value - want) <= rel * want, "leading constant is not terms[n] / lambda^n")
    need(abs(residual - float(max(ratios) - min(ratios))) <= rel * want, "residual is not the spread of the ratios")
    return True


class Analysis(Workload):
    """Certified roots, (s,b) growth constants, leading-constant fits,
    summand distributions and fits at n in the hundreds, greedy success
    tables."""

    name = "analysis"
    tail_pct = 99.0
    GRID = tuple((s, b) for s in (1, 2, 3) for b in (1, 2, 3))
    POLYS = (ref.QUILT_POLY, ref.COUNT_POLY, ref.GREEDY_AUX_POLY)

    def __init__(self, seed, tracer, src):
        super().__init__(seed, tracer, src)
        self.q = ref.Quilt()
        self.h = ref.greedy_successes(self.q, SUCCESS_TABLE_MAX_N)
        q = self.q.q
        self.rho = [Fraction(0)] + [Fraction(self.h[n], q[n + 1] - 1) for n in range(1, SUCCESS_TABLE_MAX_N + 1)]
        self.sb = {p: ref.sb_terms(*p, 3 * 400 + 2) for p in self.GRID}
        self.d_terms = ref.count_tables(200)[0][1:]
        self.memo: dict = {}

    def cached(self, key, fn):
        if key not in self.memo:
            self.memo[key] = fn()
        return self.memo[key]

    def lam(self, coeffs) -> float:
        def make():
            lo, hi = ref.root_bracket(coeffs)
            return float((lo + hi) / 2)

        return self.cached(("lam", coeffs), make)

    def round(self) -> list[Op]:
        rng, call = self.rng, self.call
        ops = []
        # each polynomial at a drawn tolerance, and the count polynomial at the
        # tightest one, the slowest operation of the round
        roots = [(coeffs, _tol(rng)) for coeffs in self.POLYS] + [(ref.COUNT_POLY, 1e-60)]
        for coeffs, tol in roots:
            poly = numerics.Polynomial(coeffs)
            ops.append(Op("root", lambda p=poly, t=tol: call("numerics.dominant_root", numerics.dominant_root, p, t),
                          lambda out, c=coeffs, t=tol: self.check_root(c, t, out)))
        for _ in range(2):
            s, b = rng.choice(self.GRID)
            tol = _tol(rng)
            ops.append(Op("sb_root", lambda p=generacci.SBParams(s, b), t=tol: call(
                "numerics.generacci_char_analysis", numerics.generacci_char_analysis, p, t),
                lambda out, s=s, b=b, t=tol: self.check_sb_root(s, b, t, out)))
        ops.append(self.fit_op())
        for _ in range(2):
            s, b = rng.choice(self.GRID)
            n = rng.randint(100, 400)
            ops.append(Op("distribution", lambda p=generacci.SBParams(s, b), n=n: self.distribution(p, n),
                          lambda out, s=s, b=b, n=n: self.check_distribution(s, b, n, out)))
        s, b = rng.choice(self.GRID)
        lo = rng.randint(100, 200)
        ops.append(Op("gaussian_fit", lambda p=generacci.SBParams(s, b), lo=lo: call("stats.gaussian_fit", stats.gaussian_fit, p, lo, lo + 5),
                      lambda out, s=s, b=b, lo=lo: self.check_fit(s, b, lo, lo + 5, out)))
        n = rng.randint(500, SUCCESS_TABLE_MAX_N)
        ops.append(Op("success_table", lambda n=n: call("greedy.success_table", greedy.success_table, n),
                      lambda out, n=n: self.check_success(n, out)))
        rng.shuffle(ops)
        return ops

    def distribution(self, params, n):
        dist = self.call("stats.summand_distribution", stats.summand_distribution, params, n)
        return dist, self.call("stats.ks_normal_distance", stats.ks_normal_distance, dist)

    def fit_op(self) -> Op:
        rng = self.rng
        n = rng.randint(60, 200)
        family = rng.choice(("quilt", "count", "sb"))
        if family == "quilt":
            terms, lam, stride = self.q.q[1 : n + 1], self.lam(ref.QUILT_POLY), 1
        elif family == "count":
            terms, lam, stride = self.d_terms[:n], self.lam(ref.COUNT_POLY), 1
        else:
            s, b = rng.choice(self.GRID)
            terms, lam, stride = self.sb[(s, b)][1 : n * b + 1], self.lam(ref.sb_char(s, b)), b
        call = self.call
        return Op("fit", lambda: call("numerics.fit_leading_constant", numerics.fit_leading_constant, terms, lam, stride),
                  lambda out: _check_leading_constant(terms, lam, stride, out.value, out.residual, 1e-12))

    def check_bracket(self, coeffs, tol, root, bound, secondary, secondary_want) -> None:
        need(0 < bound <= tol, "error bound not within the requested tolerance")
        # a float cannot come nearer the root than its own spacing
        slack = Fraction(bound) + 2 * Fraction(math.ulp(root))
        need(ref.sign_change(coeffs, Fraction(root) - slack, Fraction(root) + slack),
             "root bracket has no sign change")
        need(abs(root - self.lam(coeffs)) <= 1e-12, "not the dominant root")
        need(abs(secondary - secondary_want) <= 1e-9 * max(1.0, secondary_want), "secondary modulus off")

    def check_root(self, coeffs, tol, rep) -> bool:
        want = self.cached(("sec", coeffs), lambda: ref.other_moduli(coeffs, self.lam(coeffs)))
        self.check_bracket(coeffs, tol, rep.dominant_root, rep.error_bound, rep.secondary_modulus, want)
        return True

    def check_sb_root(self, s, b, tol, rep) -> bool:
        aux = ref.sb_aux(s, b)
        want = self.cached(("sec", aux), lambda: ref.other_moduli(aux, self.lam(aux))) ** (1.0 / b)
        self.check_bracket(ref.sb_char(s, b), tol, rep.dominant_root, rep.error_bound, rep.secondary_modulus, want)
        return True

    def check_distribution(self, s, b, n, out) -> bool:
        dist, ks = out
        hist = ref.sb_histogram(s, b, n)
        need(dist.n == n and (dist.params.s, dist.params.b) == (s, b), "distribution for other inputs")
        need(dist.histogram == hist, "histogram differs from b^k C(n - s(k-1), k)")
        need(sum(dist.histogram.values()) == self.sb[(s, b)][b * n + 1], "histogram total is not a_{bn+1}")
        need((dist.mean, dist.variance) == ref.moments(hist), "mean or variance inexact")
        need(abs(ks - ref.ks_distance(hist)) <= 1e-12, "KS distance differs")
        return True

    def check_fit(self, s, b, lo, hi, fit) -> bool:
        ns = list(range(lo, hi + 1))
        hists = [ref.sb_histogram(s, b, n) for n in ns]
        mom = [ref.moments(h) for h in hists]
        a, a0 = ref.line_fit(ns, [m for m, _ in mom])
        c, c0 = ref.line_fit(ns, [v for _, v in mom])
        for got, want in zip((fit.a_hat, fit.b_hat, fit.c_hat, fit.d_hat), (a, a0, c, c0)):
            need(abs(got - float(want)) <= 1e-9 * max(1.0, abs(float(want))), "moment fit differs")
        need(abs(fit.ks_distance - ref.ks_distance(hists[-1])) <= 1e-12, "KS distance differs")
        return True

    def check_success(self, n, table) -> bool:
        need(table.h == self.h[: n + 1], "h_n differs from greedy counts")
        need(table.rho == self.rho[: n + 1], "rho_n differs")
        return True


# --- cli ----------------------------------------------------------------------------

# The README's command-line examples.
README_EXAMPLES = (
    "seq quilt --count 21",
    "seq generacci --s 1 --b 2 --count 10",
    "decompose quilt-greedy --m 6",
    "decompose quilt-greedy6 --m 27",
    "decompose generacci --s 1 --b 2 --m 10",
    "count quilt --m 106",
    "tables quilt-count --n 13",
    "tables greedy-success --n 17",
    "average quilt --n 25",
    "roots quilt --tol 1e-12",
    "roots generacci --s 2 --b 1",
    "roots quilt-count",
    "roots greedy-aux",
    "greedy ratio --n 100",
    "stats generacci --s 1 --b 2 --n-min 15 --n-max 25",
    "normalize quilt --indices 7,7",
)


def _flag(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _close(got: str, want: float, rel: float = 1e-10) -> bool:
    return abs(float(got) - want) <= rel * abs(want) + 1e-300


def _poly_from_label(label: str) -> tuple[int, ...]:
    """'+1*x^3 -1*x^1 -1' -> (-1, -1, 0, 1)."""
    coeffs: dict[int, int] = {}
    for part in label.split():
        c, _, power = part.partition("*x^")
        coeffs[int(power) if power else 0] = int(c)
    return tuple(coeffs.get(k, 0) for k in range(max(coeffs) + 1))


class Cli(Workload):
    """Every README example as a fresh `python -m genquilt.cli` process, in
    json and in csv."""

    name = "cli"
    tail_pct = 90.0
    in_process = False

    def __init__(self, seed, tracer, src):
        super().__init__(seed, tracer, src)
        self.env = dict(os.environ, PYTHONPATH=src)
        self.q = ref.Quilt()
        self.h = ref.greedy_successes(self.q, 100)
        self.first: dict = {}  # (command, format) -> (stdout, verdict)
        here = os.path.dirname(os.path.abspath(__file__))
        self.probe = os.path.join(here, "cli_probe.py")
        self.cwd = os.path.dirname(here)

    def round(self) -> list[Op]:
        ops = [self.command_op(cmd, fmt) for cmd in README_EXAMPLES for fmt in ("json", "csv")]
        self.rng.shuffle(ops)
        return ops

    def command_op(self, cmd: str, fmt: str) -> Op:
        argv = cmd.split() + ["--format", fmt]
        if self.tracer:
            args = [sys.executable, self.probe] + argv
        else:
            args = [sys.executable, "-m", "genquilt.cli"] + argv

        def run():
            proc = subprocess.run(args, capture_output=True, env=self.env, cwd=self.cwd, timeout=120)
            if self.tracer:
                lines = proc.stderr.decode().splitlines()
                spans = json.loads(lines.pop())
                self.tracer.add("cli.import", *spans["import"])
                self.tracer.add("cli.main", *spans["main"])
                proc.stderr = "\n".join(lines).encode()
            return proc

        return Op(cmd.split()[0], run, lambda proc: self.check(cmd, fmt, argv, proc))

    def check(self, cmd, fmt, argv, proc) -> bool:
        need(proc.returncode == 0, f"{cmd}: exit {proc.returncode}: {proc.stderr[-300:]!r}")
        need(not proc.stderr, f"{cmd}: wrote to stderr")
        key = (cmd, fmt)
        if key in self.first:
            stdout, verdict = self.first[key]
            need(proc.stdout == stdout, f"{cmd} --format {fmt}: output not byte-identical across runs")
            return verdict
        text = proc.stdout.decode()
        if fmt == "json":
            record = json.loads(text)
            need(record["command"] == argv[0] and record["meta"]["tool"] == "genquilt", "bad record header")
            rows = [{k: str(v) for k, v in row.items()} for row in record["rows"]]
        else:
            rows = list(csv.DictReader(io.StringIO(text)))
        verdict = self.check_rows(argv, rows)
        self.first[key] = (proc.stdout, verdict)
        return verdict

    def check_rows(self, argv, rows) -> bool:
        q, h = self.q, self.h
        verb, target = argv[0], argv[1]
        num = lambda name: int(_flag(argv, name))  # noqa: E731
        if verb == "seq":
            count = num("--count")
            terms = q.q if target == "quilt" else ref.sb_terms(num("--s"), num("--b"), count)
            need([(r["n"], r["term"]) for r in rows] == [(str(n), str(terms[n])) for n in range(1, count + 1)],
                 "seq terms differ")
        elif verb == "decompose":
            m = num("--m")
            idx = [int(r["index"]) for r in rows]
            if target == "generacci":
                s, b = num("--s"), num("--b")
                terms = ref.sb_terms(s, b, 64)
                need(sum(terms[i] for i in idx) == m and ref.sb_legal(s, b, idx), "not the (s,b) decomposition")
                need([r["value"] for r in rows] == [str(terms[i]) for i in idx], "values differ")
            else:
                want = q.greedy(m) if target == "quilt-greedy" else q.greedy6(m)
                need(idx == want and [r["value"] for r in rows] == [str(q.q[i]) for i in idx], "indices differ")
                if target == "quilt-greedy":
                    need(all(r["legal"] == str(ref.fq_legal(idx)) for r in rows), "legality flag differs")
        elif verb == "count":
            m = num("--m")
            need(rows == [{"m": str(m), "count": str(q.enumerated_counts(20)[m])}], "count differs from enumeration")
        elif verb == "tables" and target == "quilt-count":
            n = num("--n")
            d, c, b = ref.count_tables(n)
            need(rows == [{"n": str(k), "d": str(d[k]), "c": str(c[k]), "b": str(b[k])} for k in range(1, n + 1)],
                 "d/c/b rows differ")
        elif verb in ("tables", "greedy"):
            n = num("--n")
            ks = range(1, n + 1) if verb == "tables" else [n]
            for row, k in zip(rows, ks, strict=True):
                rho = Fraction(h[k], q.q[k + 1] - 1)
                need(row["n"] == str(k) and row["h"] == str(h[k]) and row.get("q", str(q.q[k])) == str(q.q[k]),
                     "success rows differ")
                need(row["rho"] == f"{rho.numerator}/{rho.denominator}", "rho differs")
                need(row["rho_decimal"] == ref.decimal(rho, 12) and row["rho_percent"] == ref.decimal(rho * 100, 4),
                     "rho rendering differs")
        elif verb == "average":
            n = num("--n")
            sums = q.subset_sums(n)
            total, prev = bisect_left(sums, q.q[n + 1]), bisect_left(sums, q.q[n])
            avg = Fraction(total, q.q[n + 1])
            (row,) = rows
            need(row["total"] == str(total) and row["average"] == f"{avg.numerator}/{avg.denominator}",
                 "average differs from enumeration")
            need(row["average_decimal"] == ref.decimal(avg, 12), "average rendering differs")
            growth = float(avg / Fraction(prev, q.q[n]))
            need(_close(row["exponent_estimate"], growth), "exponent estimate differs")
            need(abs(growth - ref.AVERAGE_GROWTH) <= ref.AVERAGE_GROWTH_TOL, "growth ratio off 1.05459")
        elif verb == "roots":
            return self.check_roots(argv, rows)
        elif verb == "stats":
            s, b, lo, hi = num("--s"), num("--b"), num("--n-min"), num("--n-max")
            ns = list(range(lo, hi + 1))
            mom = [ref.moments(ref.sb_histogram(s, b, n)) for n in ns]
            want = ref.line_fit(ns, [m for m, _ in mom]) + ref.line_fit(ns, [v for _, v in mom])
            (row,) = rows
            for name, w in zip(("a_hat", "b_hat", "c_hat", "d_hat"), want):
                need(_close(row[name], float(w)), f"{name} differs")
            need(_close(row["ks_distance"], ref.ks_distance(ref.sb_histogram(s, b, hi))), "KS distance differs")
        elif verb == "normalize":
            parts = [int(x) for x in _flag(argv, "--indices").split(",")]
            m = q.total(parts)
            prev = tuple(sorted(parts, reverse=True))
            for row in rows[:-1]:
                before = tuple(int(x) for x in row["before"].split("+"))
                after = tuple(int(x) for x in row["after"].split("+"))
                need(before == prev and q.total(after) == m, "trace does not chain or changes the sum")
                need(row["move"] == "tail" or ref.measure_below(after, before), "measure did not shrink")
                prev = after
            need(rows[-1]["step"] == "final" and rows[-1]["after"] == "+".join(map(str, q.greedy6(m))),
                 "normalization did not reach Greedy-6")
        else:
            raise Wrong(f"no check for {argv}")
        return True

    def check_roots(self, argv, rows) -> bool:
        (row,) = rows
        target = argv[1]
        coeffs = _poly_from_label(row["polynomial"])
        if target == "generacci":
            s, b = int(_flag(argv, "--s")), int(_flag(argv, "--b"))
            want = ref.sb_char(s, b)
            aux = ref.sb_aux(s, b)
            lo, hi = ref.root_bracket(aux)
            secondary = ref.other_moduli(aux, float(lo)) ** (1.0 / b)
            terms, stride = ref.sb_terms(s, b, 60 * b)[1:], b
        else:
            want = {"quilt": ref.QUILT_POLY, "quilt-count": ref.COUNT_POLY, "greedy-aux": ref.GREEDY_AUX_POLY}[target]
            secondary = None
            terms = {
                "quilt": lambda: self.q.q[1:61],
                "quilt-count": lambda: ref.count_tables(100)[0][1:],
                "greedy-aux": lambda: [x + 1 for x in ref.greedy_successes(self.q, 100)[1:]],
            }[target]()
            stride = 1
        need(coeffs == want, "roots of another polynomial")
        lo, hi = ref.root_bracket(want)
        lam = float((lo + hi) / 2)
        if secondary is None:
            secondary = ref.other_moduli(want, lam)
        need(_close(row["dominant_root"], lam), "dominant root differs beyond 12 digits")
        need(_close(row["secondary_modulus"], secondary), "secondary modulus differs")
        _check_leading_constant(terms, lam, stride, float(row["leading_constant"]), float(row["residual"]), 1e-10)
        tol = float(_flag(argv, "--tol", "1e-12"))
        bound = Fraction(row["error_bound"])
        need(0 < bound <= Fraction(tol), "printed error bound above the requested tolerance")
        root = Fraction(row["dominant_root"])
        # Known fault: the printed root does not lie within the printed bound.
        return ref.sign_change(want, root - bound, root + bound)


WORKLOADS = {cls.name: cls for cls in (Decompose, Counting, Analysis, Cli)}
