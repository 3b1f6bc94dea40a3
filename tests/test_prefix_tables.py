"""The success and count tables, the counting sweep's term prefix and the
(s,b) sequence caches are append-only prefixes shared by a process.

Each check runs in a fresh interpreter, so no earlier test has grown a table.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints one line per n: the repr of success_table(n) and count_tables(n).
# With --mutate it scribbles on every returned column before the next call.
# It then makes the two refused calls and prints the shared lengths before
# and after them.
_CALLS = """
import json, sys
from genquilt import greedy, quilt_count
from genquilt.errors import BudgetExceededError

def lengths():
    return [len(greedy._h), len(greedy._rho), *map(len, quilt_count._tables)]

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
        assert before == after == [3002] * 5, mode


def test_interrupted_growth_leaves_the_tables_whole():
    _run("""
from fractions import Fraction
from genquilt import greedy, quilt
greedy.success_table(100)
real, calls = greedy._rho_n, [0]
def flaky(h, n):
    calls[0] += 1
    if calls[0] == 50:
        raise KeyboardInterrupt
    return real(h, n)
greedy._rho_n = flaky
try:
    greedy.success_table(500)
except KeyboardInterrupt:
    pass
else:
    raise AssertionError("growth was not interrupted")
assert (len(greedy._h), len(greedy._rho)) == (501, 101)
greedy._rho_n = real
t, q = greedy.success_table(500), quilt.shared_cache().term
assert t.rho[1:] == [Fraction(t.h[n], q(n + 1) - 1) for n in range(1, 501)]
""")


def test_sweep_prefix_grows_only_past_its_length_and_survives_interruption():
    # count_decompositions reads q_i, cap_i and the term index from one shared
    # prefix: nothing is grown at import, a shorter request returns the same
    # tuple, and a longer one binds a longer copy, so a growth that is
    # interrupted part way leaves the prefix as it was.
    _run("""
from genquilt import quilt_count as qc
assert qc._sweep == ([0], [0], {})
qc.count_decompositions(10**20)
first = qc._sweep
n = len(first[0])
assert n > 90 and qc._sweep_tables(n - 1) is first and qc._sweep_tables(5) is first
qc.count_decompositions(10**12 + 7)
assert qc._sweep is first

real = qc.shared_cache
class Flaky(list):
    def __getitem__(self, i):
        if i == n + 50:
            raise KeyboardInterrupt
        return list.__getitem__(self, i)
class FlakyCache:
    def terms(self, count):
        return Flaky(real().terms(count))
qc.shared_cache = FlakyCache
try:
    qc._sweep_tables(n + 100)
except KeyboardInterrupt:
    pass
else:
    raise AssertionError("growth was not interrupted")
qc.shared_cache = real
assert qc._sweep is first and list(map(len, first)) == [n, n, n - 1]

grown = qc._sweep_tables(n + 100)
assert list(map(len, first)) == [n, n, n - 1]
assert [col[:n] for col in grown[:2]] == [first[0], first[1]]
qc._sweep = ([0], [0], {})
assert qc._sweep_tables(n + 100) == grown
""")


# Prints one line per (s, b, count): the first ``count`` terms from
# generate().  Then it checks that equal params share one cache, that refused
# counts grow and add none, and that summand_distribution still compares its
# closed-form total with the recurrence's a_{bn+1}.
_SB_CALLS = """
import json, sys
from genquilt import generacci, stats
from genquilt.errors import BudgetExceededError
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
