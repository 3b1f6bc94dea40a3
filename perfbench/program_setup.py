"""genquilt's set-up for each workload, and a probe that times it.

Set-up is what a program using genquilt pays before its first operation:
the import, and the growth of the sequence caches to the largest input the
workload can draw (a bound fixed here, not drawn from the seed), which the
first operations would otherwise pay for.

    python3 perfbench/program_setup.py <workload>

imports genquilt (found through PYTHONPATH) in this fresh interpreter,
performs the set-up, and prints the seconds it took.  Interpreter start-up
is not included.
"""

import sys
import time

# (s, b) systems the decompose workload draws from.
SB_GRID = ((1, 1), (2, 1), (1, 2), (2, 3), (3, 2))
DECOMPOSE_MAX_DIGITS = 300
# The largest m the counting workload asks about has fewer digits than this.
COUNTING_MAX_DIGITS = 170
SUCCESS_TABLE_MAX_N = 3000


def program_setup(workload: str) -> dict:
    """Import genquilt and grow what ``workload`` needs; returns the caches it built."""
    if workload == "cli":
        import genquilt.cli  # noqa: F401  (every command pays this import)

        return {}
    from genquilt import generacci, quilt

    shared = quilt.shared_cache()
    if workload == "decompose":
        top = 10**DECOMPOSE_MAX_DIGITS
        shared.ensure_value(top)
        return {p: generacci.generate(generacci.SBParams(*p), 1).ensure_value(top) for p in SB_GRID}
    if workload == "counting":
        # count_decompositions looks five terms past the largest one <= m
        shared.ensure_count(shared.index_of_largest_leq(10**COUNTING_MAX_DIGITS) + 5)
    elif workload == "analysis":
        shared.ensure_count(SUCCESS_TABLE_MAX_N + 1)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {}


if __name__ == "__main__":
    start = time.perf_counter()
    program_setup(sys.argv[1])
    print(time.perf_counter() - start)
