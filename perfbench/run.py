"""genquilt benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 28 --trace 0

Run from the root of a genquilt checkout; genquilt is imported from its
src/ directory.  Operations run one at a time in a closed loop, in whole
rounds, for --seconds of wall time; only the operations are timed, not
the checks of their outputs.  A human summary goes to stderr;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of a run traced by the benchmark's own
wrappers (spans written to perfbench/out/).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("decompose", "counting", "analysis", "cli")
SETUP_PROBES = 9

LAYER_FUNCTIONS = (
    "generacci.decompose",
    "greedy.greedy_decompose",
    "greedy.greedy6_decompose",
    "greedy.normalize_to_greedy6",
    "greedy.success_table",
    "quilt.is_fq_legal",
    "quilt_count.count_decompositions",
    "quilt_count.average_decompositions",
    "quilt_count.count_tables",
    "numerics.dominant_root",
    "numerics.generacci_char_analysis",
    "numerics.fit_leading_constant",
    "stats.summand_distribution",
    "stats.gaussian_fit",
    "stats.ks_normal_distance",
)


def probe_setup(workload: str) -> float:
    """Seconds a fresh interpreter spends on genquilt's set-up for ``workload``."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "program_setup.py"), workload],
        capture_output=True, text=True, cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC), timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def measure(wl, seconds: float, tracer) -> dict:
    """Whole rounds of operations and their checks for ``seconds`` of wall time.

    The set-up probes run between rounds, spread over the run, and their
    time does not count towards ``seconds``.
    """
    latencies: list[float] = []
    failed: Counter = Counter()
    errors: Counter = Counter()
    setup = [probe_setup(wl.name)]
    timed = 0.0
    rounds = 0
    begin = time.perf_counter()
    elapsed = 0.0
    while elapsed < seconds:
        for op in wl.round():
            start = time.perf_counter()
            if tracer:
                span = tracer.open("op." + op.kind, start)
            try:
                out, exc = op.run(), None
            except Exception as e:  # the operation failed; counted below
                out, exc = None, e
            end = time.perf_counter()
            if tracer:
                tracer.close(span, end)
            latencies.append(end - start)
            timed += end - start
            if exc is not None:
                failed[op.kind] += 1
                expected = isinstance(exc, op.may_raise)
                errors[(op.kind, type(exc).__name__, "known fault" if expected else "WRONG")] += 1
                continue
            try:
                ok = op.check(out)
            except Exception as e:  # a wrong output, or one the check could not read
                failed[op.kind] += 1
                errors[(op.kind, f"{type(e).__name__}: {e}"[:200], "WRONG")] += 1
                continue
            if not ok:
                failed[op.kind] += 1
                errors[(op.kind, "output shows the known fault", "known fault")] += 1
        rounds += 1
        elapsed = time.perf_counter() - begin
        while len(setup) < min(SETUP_PROBES - 1, 1 + int((SETUP_PROBES - 1) * elapsed / seconds)):
            probe_start = time.perf_counter()
            setup.append(probe_setup(wl.name))
            begin += time.perf_counter() - probe_start
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(wl.name))
    return {
        "latencies": latencies, "timed": timed, "rounds": rounds,
        "failed": failed, "errors": errors, "setup": setup,
    }


def end_to_end(wl, res: dict) -> dict:
    lat = sorted(res["latencies"])
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return {
        "ops_per_s": (len(lat) / res["timed"], "1/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_tail_ms": (1000 * nearest_rank(lat, wl.tail_pct), "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(res["setup"]), "s"),
    }


def per_layer(wl, res: dict, tracer) -> dict:
    from genquilt import quilt

    summary = tracer.summary()
    out = {}
    for fn in LAYER_FUNCTIONS:
        row = summary.get(fn, {"calls": 0, "total_ms": 0.0, "p50_ms": 0.0})
        out[fn + ".calls"] = (row["calls"], "count")
        out[fn + ".total_ms"] = (row["total_ms"], "ms")
        out[fn + ".p50_ms"] = (row["p50_ms"], "ms")
    out["greedy.moves_applied"] = (wl.counters.get("greedy.moves_applied", 0), "count")
    out["quilt.terms_cached"] = (len(quilt.shared_cache()) if wl.in_process else 0, "count")
    count_failed = sum(n for kind, n in res["failed"].items() if kind.startswith("count."))
    out["quilt_count.count_decompositions.failed"] = (count_failed, "count")
    for part in ("import", "main"):
        out[f"cli.{part}.p50_ms"] = (summary.get(f"cli.{part}", {}).get("p50_ms", 0.0), "ms")
    startup = [end - start - inner for (name, start, end, parent), inner in zip(tracer.spans, tracer.child_time())
               if parent < 0] if not wl.in_process else [0.0]
    out["cli.startup.p50_ms"] = (1000 * statistics.median(startup), "ms")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "genquilt", "__init__.py")):
        print(f"perfbench: no genquilt sources in {SRC}; run from a genquilt checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import genquilt

    if not os.path.abspath(genquilt.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported genquilt from {genquilt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    probe_setup(args.workload)  # untimed: a fresh checkout compiles its bytecode here
    tracer = Tracer() if args.trace else None
    wl = WORKLOADS[args.workload](args.seed, tracer, SRC)
    res = measure(wl, args.seconds, tracer)
    attempted = len(res["latencies"])
    failed = sum(res["failed"].values())
    correct = not any(tag == "WRONG" for _, _, tag in res["errors"])

    e2e = end_to_end(wl, res)
    metrics = per_layer(wl, res, tracer) if tracer else e2e
    if tracer:
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))

    log = sys.stderr
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {res['rounds']} rounds, "
          f"{attempted} operations, {failed} failed, {res['timed']:.2f} s timed", file=log)
    for (kind, what, tag), n in sorted(res["errors"].items()):
        print(f"  {tag}: {n} x {kind}: {what}", file=log)
    print(f"  op_tail_ms is p{wl.tail_pct:g} of {attempted} samples; "
          f"set-up samples (s): {' '.join(f'{s:.4f}' for s in res['setup'])}", file=log)
    if tracer:  # what the same traced run would read end to end, for the tracing overhead
        print("  traced end-to-end: " + ", ".join(f"{k} {v:.4g}" for k, (v, _) in e2e.items()), file=log)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}", file=log)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
