"""Acceptance criteria.

Each test enforces one numbered criterion at its stated tolerance and time
budget and prints a single pass/fail line (visible with ``pytest -s`` or in
captured output).  Everything here goes through public surfaces; expected
values are frozen from exhaustive oracles or verified published constants.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from genquilt.cli import main as cli_main
from genquilt.cli import percent_string
from genquilt.generacci import SBParams, decompose, generate
from genquilt.greedy import greedy6_decompose, normalize_to_greedy6, success_table
from genquilt.numerics import count_char, dominant_root, dominant_root_bracket, fit_leading_constant, quilt_char
from genquilt.oracle import enumerate_legal, greedy_failures, is_legal, min_summands_table, structure_conditions
from genquilt.quilt import is_fq_legal, quilt_terms
from genquilt.quilt_count import average_decompositions, count_decompositions, count_tables
from genquilt.stats import gaussian_fit, ks_normal_distance, summand_distribution

EXPECTED_PREFIX = [1, 2, 3, 4, 5, 7, 9, 12, 16, 21, 28, 37, 49, 65, 86, 114, 151, 200, 265, 351, 465]

TABLE_ROWS = [
    (1, 2, 1, 0), (2, 3, 1, 0), (3, 4, 1, 0), (4, 6, 2, 1), (5, 8, 2, 1),
    (6, 11, 3, 1), (7, 15, 4, 1), (8, 21, 6, 2), (9, 30, 9, 3), (10, 42, 12, 4),
    (11, 59, 17, 6), (12, 82, 23, 8), (13, 114, 32, 11),
]

TABLE_H = [1, 2, 3, 4, 5, 7, 10, 14, 19, 25, 33, 44, 59, 79, 105, 139, 184]
TABLE_RHO_PERCENT = [
    "100.0000", "100.0000", "100.0000", "100.0000", "83.3333", "87.5000",
    "90.9091", "93.3333", "95.0000", "92.5926", "91.6667", "91.6667",
    "92.1875", "92.9412", "92.9204", "92.6667", "92.4623",
]

GREEDY_FAILURES = [6, 27, 34, 43, 55, 71, 92, 113, 120, 141, 148, 157, 178, 185, 194]

DECOMPOSITIONS_OF_106 = {(86, 16, 4), (86, 12, 7, 1), (65, 37, 4)}


@contextmanager
def criterion(num: int, budget_s: float, description: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num:2d}: FAIL ({time.perf_counter() - start:6.2f}s) {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num:2d}: PASS ({elapsed:6.2f}s / budget {budget_s:.0f}s) {description}")
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds the {budget_s}s budget"


def test_criterion_01_sequence_fidelity():
    with criterion(1, 1.0, "first 21 quilt terms"):
        assert quilt_terms(21).terms(21) == EXPECTED_PREFIX


def test_criterion_02_count_table_reproduction(capsys):
    with criterion(2, 120.0, "d/c/b table rows and oracle equivalence to n = 18"):
        code = cli_main(["tables", "quilt-count", "--n", "13", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        rows = json.loads(out)["rows"]
        got = [(r["n"], int(r["d"]), int(r["c"]), int(r["b"])) for r in rows]
        assert got == TABLE_ROWS

        tables = count_tables(18)
        for n in range(1, 19):
            subsets = enumerate_legal("quilt", n).subsets
            assert tables.d[n] == len(subsets)
            assert tables.c[n] == sum(1 for s in subsets if n in s)
            assert tables.b[n] == sum(1 for s in subsets if n in s and n - 2 in s)


def test_criterion_03_success_table_reproduction():
    with criterion(3, 120.0, "h and rho rows, direct count = recurrence to n = 22"):
        rec = success_table(22)
        assert rec.h[1:18] == TABLE_H
        assert [percent_string(r) for r in rec.rho[1:18]] == TABLE_RHO_PERCENT
        # counted directly, h_n is q_{n+1} - 1 less the greedy failures below q_{n+1}
        q = quilt_terms(23).term
        failures = greedy_failures(q(23) - 1)
        h = [0] + [q(n + 1) - 1 - sum(f < q(n + 1) for f in failures) for n in range(1, 23)]
        assert h == rec.h
        assert [Fraction(0)] + [Fraction(h[n], q(n + 1) - 1) for n in range(1, 23)] == rec.rho


def test_criterion_04_greedy_failure_set():
    with criterion(4, 1.0, "greedy failure set in [1, 200]"):
        assert greedy_failures(200) == GREEDY_FAILURES


def test_criterion_05_constants():
    with criterion(5, 1.0, "dominant roots, growth constants, success ratio"):
        quilt_report = dominant_root(quilt_char(), 1e-10)
        count_report = dominant_root(count_char(), 1e-10)
        assert abs(quilt_report.dominant_root - 1.32472) <= 1e-5
        assert abs(count_report.dominant_root - 1.39704) <= 1e-5
        ratio = count_report.dominant_root / quilt_report.dominant_root
        assert abs(ratio - 1.05459) <= 1e-5
        assert abs(quilt_report.secondary_modulus - 0.8688) <= 1e-3
        alpha = fit_leading_constant(quilt_terms(60).terms(60), quilt_report.dominant_root, 1)
        assert abs(alpha.value - 1.26724) <= 1e-4
        assert abs(float(success_table(100).rho[100]) - 0.92627) <= 5e-5


def test_criterion_06_decompositions_of_106():
    with criterion(6, 1.0, "the three decompositions of 106"):
        assert count_decompositions(106) == 3
        cache = quilt_terms(16)
        top = cache.index_of_largest_leq(106)
        found = {
            tuple(cache.term(i) for i in sorted(sub, reverse=True))
            for sub in enumerate_legal("quilt", top).subsets
            if sum(cache.term(i) for i in sub) == 106
        }
        assert found == DECOMPOSITIONS_OF_106


def test_criterion_07_uniqueness():
    with criterion(7, 300.0, "unique decompositions for (s,b) in {1,2,3}^2, m <= 5000"):
        for s in (1, 2, 3):
            for b in (1, 2, 3):
                params = SBParams(s, b)
                cache = generate(params, 1)
                top = cache.index_of_largest_leq(5000)
                result = enumerate_legal(params, top)
                by_value: dict[int, tuple[int, ...]] = {}
                for sub in result.subsets:
                    value = sum(cache.term(i) for i in sub)
                    by_value.setdefault(value, sub)
                for m in range(0, 5001):
                    assert result.by_value.get(m, 0) == 1, (params, m)
                    dec = decompose(cache, m)
                    assert dec.total == m
                    assert is_legal(params, dec.indices)
                    assert tuple(sorted(by_value[m], reverse=True)) == dec.indices, (params, m)


def _random_multiset(rng, cache, m):
    parts = []
    r = m
    while r:
        hi = cache.index_of_largest_leq(r)
        parts.append(rng.randint(max(1, hi - 2), hi))
        r -= cache.term(parts[-1])
    return parts


def _force_illegal(parts, cache):
    """Split one summand along a recurrence so the multiset turns illegal."""
    k = max(parts)
    rest = list(parts)
    rest.remove(k)
    if k >= 6:
        return rest + [k - 2, k - 3]  # adjacent pair, difference 1
    return rest + {5: [4, 1], 4: [3, 1], 3: [2, 1], 2: [1, 1]}[k]


def _measure(ms):
    return (len(ms), sum(ms), sum(1 for i in ms if 2 <= i <= 5))


def test_criterion_08_minimality_and_normalization():
    with criterion(8, 300.0, "greedy-6 minimality and move normalization"):
        table = min_summands_table(10**4)
        for m in range(1, 10**4 + 1):
            assert len(greedy6_decompose(m)) == table[m], m

        rng = random.Random(20160817)
        cache = quilt_terms(40)
        sample = rng.sample(range(2, 10**4 + 1), 500)
        for m in sample:
            expected = greedy6_decompose(m).indices
            for _ in range(200):
                parts = _random_multiset(rng, cache, m)
                if is_fq_legal(parts):
                    parts = _force_illegal(parts, cache)
                assert not is_fq_legal(parts)
                trace = normalize_to_greedy6(parts)
                assert trace.final.indices == expected, (m, parts)
                for step in trace.steps:
                    if step.move != "tail":
                        assert _measure(step.after) < _measure(step.before), (m, step)


def test_criterion_09_greedy6_structure():
    with criterion(9, 120.0, "greedy-6 structure dichotomy for m <= 1e5"):
        for m in range(1, 10**5 + 1):
            cond1, cond2 = structure_conditions(greedy6_decompose(m))
            assert cond1 != cond2, m


def test_criterion_10_average_growth():
    with criterion(10, 600.0, "exact averages, growth ratio, index-count sandwich"):
        tables = count_tables(25)
        cache = quilt_terms(30)
        reports = [average_decompositions(n) for n in range(1, 26)]
        for rep in reports:
            assert rep.average <= Fraction(tables.d[rep.n], cache.term(rep.n + 1))
        for rep in reports[19:]:
            assert abs(rep.exponent_estimate - 1.05459) <= 0.02, rep.n


def test_growth_ratio_bracket_is_certified():
    # criterion 10's ratio is exactly lambda_count / lambda_quilt; the two
    # exact root brackets bound it, here to 20 correct decimal places
    lo_c, hi_c = dominant_root_bracket(count_char(), Fraction(1, 10**30))
    lo_q, hi_q = dominant_root_bracket(quilt_char(), Fraction(1, 10**30))
    lo, hi = lo_c / hi_q, hi_c / lo_q
    assert hi - lo < Fraction(1, 10**29)
    ratio = Fraction("1.05459072831794085654")
    half_unit = Fraction(1, 2 * 10**20)
    assert ratio - half_unit <= lo < hi <= ratio + half_unit


def test_criterion_11_identity_suites():
    with criterion(11, 60.0, "recurrence and shift identity suites"):
        cache = quilt_terms(510)
        q = cache.term
        running = 0
        for n in range(1, 501):
            running += q(n)
            assert running == q(n + 5) - 6
            if n >= 6:
                assert q(n + 1) == q(n) + q(n - 4)
            if n >= 5:
                assert q(n + 1) == q(n - 1) + q(n - 2)
            if n >= 7:
                assert 2 * q(n) == q(n + 2) + q(n - 5)
            if n >= 8:
                assert q(n) + q(n - 2) == q(n + 1) + q(n - 5)
            if n >= 10:
                assert q(n) + q(n - 3) == q(n + 1) + q(n - 8)
        for ell in range(1, 201):
            total = 0
            k = 0
            while ell - 5 * k >= 1:
                total += q(ell - 5 * k)
                assert total < q(ell + 1)
                k += 1
        for s in (1, 2, 3):
            for b in (1, 2, 3):
                params = SBParams(s, b)
                gen = generate(params, 201 * b + b + 1)
                a = gen.term
                for n in range(params.seed_count + 1, 201):
                    j = (n - 2) % b + 1
                    assert a(n) == a(n - 1) + a(n - 1 - (s * b + j - 1))
                for bin_n in range(s, 201):  # a_{j+nb} = a_{1+nb} + (j-1) a_{1+(n-s)b}
                    for j in range(1, b + 2):
                        assert a(j + bin_n * b) == a(1 + bin_n * b) + (j - 1) * a(1 + (bin_n - s) * b)


def test_criterion_12_gaussian_behavior():
    with criterion(12, 300.0, "linear moments and normal convergence"):
        for s, b in [(1, 1), (1, 2), (2, 1)]:
            params = SBParams(s, b)
            fit = gaussian_fit(params, 15, 25)
            assert fit.a_hat > 0
            assert fit.c_hat > 0
            for n in range(20, 26):
                dist = summand_distribution(params, n)
                mean, var = float(dist.mean), float(dist.variance)
                assert abs(fit.a_hat * n + fit.b_hat - mean) / mean < 0.01
                assert abs(fit.c_hat * n + fit.d_hat - var) / var < 0.01
            at25 = ks_normal_distance(summand_distribution(params, 25))
            at12 = ks_normal_distance(summand_distribution(params, 12))
            assert at25 < 0.05
            assert at25 < at12
