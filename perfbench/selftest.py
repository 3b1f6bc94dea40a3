"""Tests of the benchmark itself: its references, its checks, its runs.

    python3 -m pytest -q perfbench/selftest.py

(about 30 s; not collected by a plain `pytest`, so the library's suite
does not change).  It checks that each reference agrees with a brute-force
count, that each check rejects a corrupted output, that every workload runs
briefly with correct outputs and the expected share of known faults, and
that the benchmark refuses to run without the genquilt sources.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from workloads import Wrong  # noqa: E402

from genquilt import generacci, greedy, numerics, quilt_count  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# failed / attempted in every run: the two known faults
FAULT_SHARE = {"decompose": (0, 1), "counting": (3, 42), "analysis": (0, 1), "cli": (8, 32)}


def run_bench(workload: str, trace: int, cwd: str = ROOT, seconds: str = "1"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


# --- references against brute force ---------------------------------------------------


def test_quilt_reference_counts_match_enumeration():
    q = ref.Quilt()
    by_value = q.enumerated_counts(17)
    assert q.q[1:11] == [1, 2, 3, 4, 5, 7, 9, 12, 16, 21]
    assert all(q.count(m) == by_value[m] for m in range(q.q[18]))
    assert by_value[106] == 3


def test_sb_reference_terms_match_definition():
    for s, b in ((1, 1), (2, 1), (1, 2), (2, 3)):
        terms = ref.sb_terms(s, b, 14)
        seq = []
        while len(seq) < 13:
            sums = {sum(seq[i - 1] for i in idx) for k in range(len(seq) + 1)
                    for idx in combinations(range(1, len(seq) + 1), k) if ref.sb_legal(s, b, idx)}
            seq.append(min(v for v in range(1, max(sums) + 2) if v not in sums))
        assert terms[1:14] == seq


def test_tables_and_histograms_match_enumeration():
    d, c, b = ref.count_tables(12)
    for n in range(1, 13):
        subsets = [s for k in range(n + 1) for s in combinations(range(1, n + 1), k) if ref.fq_legal(s)]
        assert d[n] == len(subsets)
        assert c[n] == sum(n in s for s in subsets)
        assert b[n] == sum(n in s and n - 2 in s for s in subsets)
    s_, b_, n = 2, 2, 7
    terms = ref.sb_terms(s_, b_, b_ * n + 1)
    counts: dict = {}
    for k in range(n + 1):
        for idx in combinations(range(1, b_ * n + 1), k):
            if ref.sb_legal(s_, b_, idx):
                counts[k] = counts.get(k, 0) + 1
    assert ref.sb_histogram(s_, b_, n) == counts
    assert sum(counts.values()) == terms[b_ * n + 1]


def test_root_brackets():
    lo, hi = ref.root_bracket(ref.QUILT_POLY)
    assert lo < hi and hi - lo < Fraction(1, 2**60)
    assert abs(float(lo) - 1.324717957244746) < 1e-15
    assert ref.root_bracket(ref.sb_aux(1, 2)) == (2, 2)


# --- checks reject corrupted outputs ----------------------------------------------------


@pytest.fixture(scope="module")
def decompose():
    return workloads.Decompose(1, None, SRC)


def test_decompose_checks(decompose):
    m = 10**40 + 12345
    dec = greedy.greedy6_decompose(m)
    assert decompose.check_greedy6(m, dec)
    with pytest.raises(Wrong):
        decompose.check_greedy6(m + 1, dec)
    out = greedy.greedy_decompose(m)
    with pytest.raises(Wrong):
        decompose.check_greedy(m, dataclasses.replace(out, legal=not out.legal))
    cache = decompose.caches[(2, 3)]
    dec = generacci.decompose(cache, m)
    assert workloads._check_sb_decomposition(decompose.sb[(2, 3)], 2, 3, m, dec)
    with pytest.raises(Wrong):
        workloads._check_sb_decomposition(decompose.sb[(1, 2)], 1, 2, m, dec)


def test_normalize_check(decompose):
    parts = [7, 7, 3, 3, 1]
    trace = greedy.normalize_to_greedy6(parts)
    assert decompose.check_normalize(parts, (False, trace))
    with pytest.raises(Wrong):
        decompose.check_normalize(parts, (True, trace))
    step = trace.steps[0]
    bad = greedy.MoveTrace([dataclasses.replace(step, after=step.after + (1,))] + trace.steps[1:], trace.final)
    with pytest.raises(Wrong):
        decompose.check_normalize(parts, (False, bad))
    # a step that keeps the sum but not the measure
    swap = greedy.MoveStep("1", (9, 2), (7, 7))
    with pytest.raises(Wrong):
        decompose.check_normalize([9, 2], (False, greedy.MoveTrace([swap], trace.final)))


def test_counting_checks():
    wl = workloads.Counting(1, None, SRC)
    m = 123456789012
    assert wl.check_count(m, quilt_count.count_decompositions(m))
    with pytest.raises(Wrong):
        wl.check_count(m, quilt_count.count_decompositions(m) + 1)
    rep = quilt_count.average_decompositions(22)
    assert wl.check_average(22, rep)
    with pytest.raises(Wrong):
        wl.check_average(22, dataclasses.replace(rep, total=rep.total + 1))
    tables = quilt_count.count_tables(50)
    assert wl.check_tables(50, tables)
    tables.c[40] += 1
    with pytest.raises(Wrong):
        wl.check_tables(50, tables)


def test_analysis_checks():
    wl = workloads.Analysis(1, None, SRC)
    poly = numerics.Polynomial(ref.COUNT_POLY)
    rep = numerics.dominant_root(poly, 1e-40)
    assert wl.check_root(ref.COUNT_POLY, 1e-40, rep)
    with pytest.raises(Wrong):
        wl.check_root(ref.COUNT_POLY, 1e-40, dataclasses.replace(rep, dominant_root=rep.dominant_root + 1e-13))
    with pytest.raises(Wrong):
        wl.check_root(ref.COUNT_POLY, 1e-40, dataclasses.replace(rep, secondary_modulus=1.07))
    params = generacci.SBParams(2, 3)
    dist = wl.distribution(params, 120)
    assert wl.check_distribution(2, 3, 120, dist)
    hist = dict(dist[0].histogram)
    hist[3] += 1
    with pytest.raises(Wrong):
        wl.check_distribution(2, 3, 120, (dataclasses.replace(dist[0], histogram=hist), dist[1]))
    table = greedy.success_table(600)
    assert wl.check_success(600, table)
    table.h[300] -= 1
    with pytest.raises(Wrong):
        wl.check_success(600, table)


def test_cli_root_check_flags_the_printed_bound():
    wl = workloads.Cli(1, None, SRC)
    argv = ["roots", "quilt", "--tol", "1e-12", "--format", "json"]
    record = json.loads(subprocess.run([sys.executable, "-m", "genquilt.cli", *argv], capture_output=True,
                                       text=True, cwd=ROOT, env=wl.env, check=True).stdout)
    row = {k: str(v) for k, v in record["rows"][0].items()}
    assert wl.check_rows(argv, [row]) is False  # 1.32471795724 is 4.7e-12 from the root
    fixed = dict(row, dominant_root="1.3247179572447")
    assert wl.check_rows(argv, [fixed]) is True
    with pytest.raises(Wrong):
        wl.check_rows(argv, [dict(row, secondary_modulus="0.87")])


# --- whole runs -------------------------------------------------------------------------


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_correctly(workload):
    for trace, names in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc = run_bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, proc.stderr
        failed, per = FAULT_SHARE[workload]
        assert result["failed"] * per == result["attempted"] * failed, proc.stderr
        assert {m["name"]: m["unit"] for m in names} == {k: v["unit"] for k, v in result["metrics"].items()}
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("decompose", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
