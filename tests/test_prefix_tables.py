"""Every shared column (the quilt and (s,b) caches, the success and count
tables, the counting sweep's bounds and the averages' totals) is one
append-only ``RecurrenceCache`` per process.

Each check of what a process grows runs in a fresh interpreter, so no
earlier test has grown a column.
"""

import hashlib
import json
import os
import subprocess
import sys
from itertools import chain
from pathlib import Path

from genquilt import greedy, quilt, quilt_count

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints one line per n: the repr of success_table(n) and count_tables(n).
# With --mutate it scribbles on every returned column before the next call.
# It then makes the two refused calls and prints the shared lengths before
# and after them.
_CALLS = """
import json, sys
from genquilt import BudgetExceededError, greedy, quilt_count

def lengths():
    return [len(greedy._h), len(greedy._rho), *map(len, (quilt_count._d, quilt_count._c))]

for n in map(int, sys.argv[2:]):
    s, c = greedy.success_table(n), quilt_count.count_tables(n)
    print(json.dumps([n, repr(s), repr(c)]))
    if sys.argv[1] == "--mutate":
        for col in (*s, *c):
            col[0] = -1
            col.append(-1)
before = lengths()
for n in (0, greedy.SUCCESS_TABLE_BUDGET + 1):
    try:
        greedy.success_table(n)
    except (ValueError, BudgetExceededError):
        pass
for n in (0, quilt_count.COUNT_TABLES_BUDGET + 1):
    try:
        quilt_count.count_tables(n)
    except (ValueError, BudgetExceededError):
        pass
print(json.dumps(["lengths", before, lengths()]))
"""


def _run(script: str, *args: str) -> str:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _fresh(*args: str) -> list:
    return [json.loads(line) for line in _run(_CALLS, *args).splitlines()]


def test_call_order_and_copies_match_single_fresh_calls():
    order = ["3000", "7", "500", "3001"]
    single = {n: _fresh("--keep", n)[0] for n in order}
    for mode in ("--keep", "--mutate"):
        *rows, (_, before, after) = _fresh(mode, *order)
        assert rows == [single[n] for n in order], mode
        # a refused call grows nothing: still 3002 rows (index 0 a pad) per column
        assert before == after == [3002] * 4, mode


# Interrupts the growth of every shared column with a step that raises
# KeyboardInterrupt on its 7th call, then prints what the public functions
# return for each column; --plain skips the interruptions.
_INTERRUPTED = """
import json, sys, threading
from genquilt import generacci, greedy, quilt, quilt_count as qc

sb = generacci.SBParams(2, 3)
greedy.success_table(40), qc.count_tables(40), qc.average_decompositions(10)
qc.count_decompositions(10**8)
columns = {
    "q": quilt.shared_cache(), "sb": generacci.generate(sb, 40), "h": greedy._h, "rho": greedy._rho,
    "d": qc._d, "c": qc._c, "cap": qc._cap, "T": qc._totals,
}
if sys.argv[1] == "--interrupt":
    for name, col in columns.items():
        before, real, calls = len(col), col._step, [0]
        def flaky(terms):
            calls[0] += 1
            if calls[0] == 7:
                raise KeyboardInterrupt
            return real(terms)
        col._step = flaky
        try:
            col.ensure_count(before + 20)
        except KeyboardInterrupt:
            pass
        else:
            raise AssertionError(f"growth of {name} was not interrupted")
        col._step = real
        assert len(col) == before + 6, name  # the six terms before the interruption
    # the guard was released: another thread can grow a column
    worker = threading.Thread(target=qc.count_tables, args=(300,))
    worker.start()
    worker.join(60)
    assert not worker.is_alive()
n = 300
print(json.dumps({
    "q": quilt.shared_cache().terms(n), "sb": generacci.generate(sb, n).terms(n),
    "success": repr(greedy.success_table(n)), "tables": repr(qc.count_tables(n)),
    "totals": [qc.average_decompositions(k).total for k in range(1, 31)],
    "counts": [qc.count_decompositions(10**k + 7) for k in range(8, 40)],
    "cap": qc._cap.terms(n + 1),
}))
"""


def test_interrupted_growth_leaves_the_tables_whole():
    # An interrupted step leaves a shorter prefix, valid as far as it goes,
    # and growing it again gives what an uninterrupted process computes.
    assert _run(_INTERRUPTED, "--interrupt") == _run(_INTERRUPTED, "--plain")


def test_sweep_prefix_grows_only_past_its_length_and_survives_interruption():
    # count_decompositions reads cap_i from the cap column: only its seeds
    # exist at import, a smaller m grows nothing, and a growth that was
    # interrupted part way leaves a prefix that the next call extends.
    _run("""
from genquilt import quilt, quilt_count as qc

assert len(qc._cap) == 8
qc.count_decompositions(10**20)
n = len(qc._cap)
assert n > 90
first = qc._cap.terms(n)
qc.count_decompositions(10**12 + 7)
assert len(qc._cap) == n

real = qc._cap._step
def flaky(cap):
    if len(cap) == n + 50:
        raise KeyboardInterrupt
    return real(cap)
qc._cap._step = flaky
try:
    qc.count_decompositions(quilt.shared_cache().term(n + 100) + 1)
except KeyboardInterrupt:
    pass
else:
    raise AssertionError("growth was not interrupted")
qc._cap._step = real
assert len(qc._cap) == n + 50 and qc._cap.terms(n) == first
assert qc.count_decompositions(10**20) == qc.count_decompositions(10**20)
qc._cap.ensure_count(n + 101)
""")


# Eight threads grow every column through the public functions at once, at
# mixed sizes, with the interpreter switching threads every microsecond; then
# every returned and shared column must satisfy its recurrence.  Without the
# growth guard two threads append the same term twice.
_THREADED = """
import sys, threading
from fractions import Fraction
from genquilt import greedy, quilt, quilt_count as qc

sys.setswitchinterval(1e-6)
seen, failed = [], []

def work(seed):
    try:
        for r in range(8):
            n = 30 * r + 11 * seed + 10
            seen.append(("h", greedy.success_table(n).h))
            seen.append(("dcb", qc.count_tables(n + 20)))
            seen.append(("rho", greedy.success_table(n // 2 + 5)))
            qc.count_decompositions(quilt.shared_cache().term(2 * n) + seed)
            seen.append(("T", [qc.average_decompositions(k).total for k in range(1, min(r + 3 * seed, 30) + 1)]))
    except BaseException as exc:
        failed.append(exc)

threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
assert not any(t.is_alive() for t in threads) and not failed, failed

q = [0, *quilt.quilt_terms(700).terms(700)]
d = qc.count_tables(300).d
def check_dcb(t):
    assert t.d[:10] == [1, 2, 3, 4, 6, 8, 11, 15, 21, 30]
    assert all(t.d[n] == t.d[n - 1] + t.d[n - 2] - t.d[n - 3] + t.d[n - 5] - t.d[n - 9] for n in range(10, len(t.d)))
    assert t.c == [1] + [t.d[n] - t.d[n - 1] for n in range(1, len(t.d))]
    assert t.b == [0, 0, 0, 0, 1, 1, 1] + t.d[: len(t.d) - 7]
def check_h(h):
    assert h[:6] == list(range(6)) and all(h[n] == h[n - 1] + h[n - 5] + 1 for n in range(6, len(h)))
def check_rho(table):
    check_h(table.h)
    assert table.rho == [0] + [Fraction(table.h[n], q[n + 1] - 1) for n in range(1, len(table.h))]
def check_T(totals):
    expected = [1, 2, 3, 4, 5, 7, 10, 14]
    for n in range(8, len(totals) + 1):
        expected.append(expected[n - 5] + expected[n - 8] + d[n - 2] + d[n - 6])
    assert totals == expected[1 : len(totals) + 1]
checks = {"h": check_h, "dcb": check_dcb, "rho": check_rho, "T": check_T}
for kind, value in seen:
    checks[kind](value)
check_dcb(qc.count_tables(len(qc._d) - 1))
check_rho(greedy.success_table(len(greedy._rho) - 1))
check_T(qc._totals.terms(len(qc._totals))[1:])
shared = quilt.shared_cache().terms(len(quilt.shared_cache()))
assert shared == q[1 : len(shared) + 1]
cap = qc._cap.terms(len(qc._cap))
assert cap[:8] == [0, 1, 2, 4, 6, 8, 11, 14]
assert all(cap[i] == q[i] + q[i - 2] + cap[i - 7] for i in range(8, len(cap)))
"""


def test_threads_growing_the_columns_never_tear_them():
    # a guard-less copy tore the columns in about 3 of 5 processes
    for _ in range(5):
        _run(_THREADED)


# Prints one line per (s, b, count): the first ``count`` terms from
# generate().  Then it checks that equal params share one cache, that refused
# counts grow and add none, and that summand_distribution still compares its
# closed-form total with the recurrence's a_{bn+1}.
_SB_CALLS = """
import json, sys
from genquilt import BudgetExceededError, generacci, stats
from genquilt.generacci import SBParams, TERMS_BUDGET, generate

for arg in sys.argv[1:]:
    s, b, count = map(int, arg.split(","))
    print(json.dumps([arg, generate(SBParams(s, b), count).terms(count)]))
cache = generate(SBParams(2, 3), 5)
assert generate(SBParams(2, 3), 50) is cache and generate(SBParams(3, 2), 5) is not cache
before = len(cache), len(generacci._shared)
for params in (SBParams(2, 3), SBParams(7, 7)):
    for count in (0, TERMS_BUDGET + 1):
        try:
            generate(params, count)
        except (ValueError, BudgetExceededError):
            pass
        else:
            raise AssertionError(f"count {count} was not refused")
assert (len(cache), len(generacci._shared)) == before
stats.summand_distribution(SBParams(2, 3), 40)
real = stats._count_polynomial
stats._count_polynomial = lambda params, n: [real(params, n)[0] + 1, *real(params, n)[1:]]
try:
    stats.summand_distribution(SBParams(2, 3), 40)
except AssertionError:
    pass
else:
    raise AssertionError("a wrong histogram total went unnoticed")
"""


def test_shared_sb_caches_match_single_fresh_calls():
    order = ["2,3,500", "1,1,7", "2,3,40", "3,2,1000", "2,3,501"]
    single = {arg: json.loads(_run(_SB_CALLS, arg).splitlines()[0]) for arg in order}
    rows = [json.loads(line) for line in _run(_SB_CALLS, *order).splitlines()]
    assert rows == [single[arg] for arg in order]


def _digest(values) -> str:
    """SHA-256 of each integer's length-prefixed big-endian bytes, in order."""
    digest = hashlib.sha256()
    for v in values:
        raw = v.to_bytes(v.bit_length() // 8 + 1, "big", signed=True)
        digest.update(len(raw).to_bytes(4, "big") + raw)
    return digest.hexdigest()


def test_columns_pinned_at_their_budgets():
    # Computed by the code that grew d, c and b together from seven seed
    # rows, h and rho in copied lists, and cap and the term index beside a
    # 0-padded copy of q; so the pure-d seeds, and c and b derived from d,
    # equal that system everywhere the library serves them.
    tables = quilt_count.count_tables(quilt_count.COUNT_TABLES_BUDGET)
    success = greedy.success_table(greedy.SUCCESS_TABLE_BUDGET)
    top = quilt.shared_cache().index_of_largest_leq(10**4299)  # a 4300-digit m
    cap = quilt_count._cap.terms(top + 1)
    index = list(enumerate(quilt.shared_cache().terms(top), 1))
    assert top == 35201 and len(index) == top
    digests = {
        "d": _digest(tables.d),
        "c": _digest(tables.c),
        "b": _digest(tables.b),
        "h": _digest(success.h),
        "rho": _digest(chain.from_iterable((r.numerator, r.denominator) for r in success.rho)),
        "cap": _digest(cap),
        "index": _digest(v for pair in index for v in pair[::-1]),
    }
    assert digests == {
        "d": "84802f2bfadf4b73cb973a4bd02ec5f6f0d74c4d80a4cfd6768bbf8b969422b8",
        "c": "73a32ccb8bf7fa4b0bb9b92ce4e6bf396dbd6b97bfb5053d3d55f42573d9a96b",
        "b": "6310c5c25b3a467efbd57238a8f4ca2298a48038d7677f72ee1e7964652f51bc",
        "h": "4b4291565b9663dc81173340988efbce7059608a7ef4801599295a0294f71ed8",
        "rho": "eb835b3e99b9d18dd50f37cdeb80a94ceae6ab36b66d9972b212d983abfaa6a8",
        "cap": "1b56f6c0332197f913b4c0d4e6524d75401338e6cfca58774972b9fb7b0575f3",
        "index": "238150377037c512289cf6087c9ff0a7be67caf633b3575ca77916d5e4c67c7b",
    }
