"""Command-line front end.

One verb per library area; every subcommand takes --format json|csv and
writes a single record (or CSV header + rows) to stdout.  All inputs are
flags, no configuration files or environment, so identical invocations
produce byte-identical output.  Unbounded integers are rendered as decimal
strings, rationals both as num/den and as a 12-place decimal.

Exit codes: 0 success, 2 usage or argument error, 3 budget exceeded.  A
reader that closes stdout early (`| head`) ends the run with exit 0.

Every call is a fresh process that compiles or loads what it imports, so
each handler imports the library modules its own target runs and nothing
else, ``_emit`` imports only its format's writer, and ``build_parser``
imports no library module: ``genquilt count quilt`` never loads
``numerics``, ``greedy`` or ``stats``, and ``--help`` loads only this module
and the package root.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import BudgetExceededError, __version__


def _fmt_float(x: float | None) -> str:
    return "" if x is None else format(x, ".12g")


def decimal_string(value, places: int) -> str:
    """The rational ``value`` as a fixed-point decimal with ``places`` digits,
    half-up, with no float round-trip."""
    if places < 0:
        raise ValueError(f"places must be >= 0, got {places}")
    scaled = abs(value) * 10**places
    units = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    sign = "-" if value < 0 and units else ""  # never "-0.00"
    digits = str(units).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def percent_string(ratio) -> str:
    """A rational ratio as a percentage with four decimals, e.g. 92.4623."""
    return decimal_string(ratio * 100, 4)


def _fraction_fields(name: str, value) -> dict:
    return {
        name: f"{value.numerator}/{value.denominator}",
        f"{name}_decimal": decimal_string(value, 12),
    }


def _success_fields(h: int, rho) -> dict:
    return {"h": str(h), **_fraction_fields("rho", rho), "rho_percent": percent_string(rho)}


def _record(command: str, params: dict, rows: list[dict], tolerances: dict | None = None) -> dict:
    return {
        "command": command,
        "params": params,
        "rows": rows,
        "meta": {
            "tool": "genquilt",
            "version": __version__,
            "runtime": f"python {sys.version.split()[0]}",
            "tolerances": tolerances or {},
        },
    }


def _sb(args: argparse.Namespace, parser: argparse.ArgumentParser):
    from .generacci import SBParams
    if args.s is None or args.b is None:
        parser.error("generacci requires --s and --b")
    try:
        return SBParams(args.s, args.b)
    except ValueError as exc:
        parser.error(str(exc))
    raise AssertionError  # parser.error raises


def _cmd_seq(args, parser) -> dict:
    if args.target == "quilt":
        from . import quilt
        terms = quilt.quilt_terms(args.count).terms(args.count)
        params = {"target": "quilt", "count": args.count}
    else:
        from .generacci import generate
        sb = _sb(args, parser)
        terms = generate(sb, args.count).terms(args.count)
        params = {"target": "generacci", "s": sb.s, "b": sb.b, "count": args.count}
    # str() refuses ints past this many digits (0: no limit; the function
    # is missing before Python 3.10.7, which has no limit either)
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and terms[-1] >= 10**limit:
        raise BudgetExceededError("term digits", f"more than {limit}", limit)
    rows = [{"n": n, "term": str(t)} for n, t in enumerate(terms, start=1)]
    return _record("seq", params, rows)


def _cmd_decompose(args, parser) -> dict:
    params: dict = {"target": args.target, "m": str(args.m)}
    extra: dict = {}  # columns after index and value
    if args.target == "quilt-greedy":
        from . import greedy
        outcome = greedy.greedy_decompose(args.m)
        dec, extra = outcome.decomposition, {"legal": outcome.legal}
    elif args.target == "quilt-greedy6":
        from . import greedy
        dec = greedy.greedy6_decompose(args.m)
    else:
        from .generacci import decompose, generate
        sb = _sb(args, parser)
        params.update({"s": sb.s, "b": sb.b})
        dec = decompose(generate(sb, 1), args.m)
    rows = [{"index": i, "value": str(v), **extra} for i, v in zip(dec.indices, dec.values)]
    record = _record("decompose", params, rows)
    record["_columns"] = ["index", "value"]  # m = 0 decomposes to no rows
    return record


def _cmd_count(args, parser) -> dict:
    from . import quilt_count
    n = quilt_count.count_decompositions(args.m)
    rows = [{"m": str(args.m), "count": str(n)}]
    return _record("count", {"target": "quilt", "m": str(args.m)}, rows)


def _cmd_tables(args, parser) -> dict:
    if args.target == "quilt-count":
        from . import quilt_count
        tables = quilt_count.count_tables(args.n)
        rows = [
            {"n": n, "d": str(tables.d[n]), "c": str(tables.c[n]), "b": str(tables.b[n])}
            for n in range(1, args.n + 1)
        ]
    else:
        from . import greedy, quilt
        table = greedy.success_table(args.n)
        cache = quilt.shared_cache()
        rows = [
            {"n": n, "q": str(cache.term(n)), **_success_fields(table.h[n], table.rho[n])}
            for n in range(1, args.n + 1)
        ]
    return _record("tables", {"target": args.target, "n": args.n}, rows)


def _cmd_average(args, parser) -> dict:
    from . import quilt_count
    report = quilt_count.average_decompositions(args.n)
    row = {
        "n": report.n,
        "total": str(report.total),
        **_fraction_fields("average", report.average),
        "exponent_estimate": _fmt_float(report.exponent_estimate),
    }
    return _record("average", {"target": "quilt", "n": args.n}, [row])


def _cmd_roots(args, parser) -> dict:
    from . import numerics
    tol = numerics.DEFAULT_TOL if args.tol is None else args.tol
    params: dict = {"target": args.target, "tol": _fmt_float(tol)}
    if args.target == "generacci":
        from .generacci import generate
        sb = _sb(args, parser)
        params.update({"s": sb.s, "b": sb.b})
        report = numerics.generacci_char_analysis(sb, tol)
        stride = sb.b
        terms = generate(sb, 60 * stride).terms(60 * stride)
        poly = numerics.generacci_char(sb)
    else:
        if args.target == "quilt":
            from . import quilt
            poly, terms = numerics.quilt_char(), quilt.quilt_terms(60).terms(60)
        elif args.target == "quilt-count":
            from . import quilt_count
            poly, terms = numerics.count_char(), quilt_count.count_tables(100).d[1:]
        else:  # greedy-aux, fitted on the shifted count g_n = h_n + 1
            from . import greedy
            poly, terms = numerics.greedy_aux_char(), [h + 1 for h in greedy.success_table(100).h[1:]]
        report = numerics.dominant_root(poly, tol)
        stride = 1
    fit = numerics.fit_leading_constant(terms, report.dominant_root, stride)
    row = {
        "polynomial": str(poly),
        "dominant_root": _fmt_float(report.dominant_root),
        "error_bound": _fmt_float(report.error_bound),
        "secondary_modulus": _fmt_float(report.secondary_modulus),
        "leading_constant": _fmt_float(fit.value),
        "residual": _fmt_float(fit.residual),
    }
    return _record("roots", params, [row], tolerances={"tol": _fmt_float(tol)})


def _cmd_greedy(args, parser) -> dict:
    from . import greedy
    row = {"n": args.n, **_success_fields(*greedy.success_row(args.n))}
    return _record("greedy", {"target": "ratio", "n": args.n}, [row])


def _cmd_stats(args, parser) -> dict:
    from . import stats
    sb = _sb(args, parser)
    fit = stats.gaussian_fit(sb, args.n_min, args.n_max)
    row = {name: _fmt_float(value) for name, value in fit._asdict().items()}
    params = {"target": "generacci", "s": sb.s, "b": sb.b, "n_min": args.n_min, "n_max": args.n_max}
    return _record("stats", params, [row])


def _cmd_normalize(args, parser) -> dict:
    try:
        indices = [int(part) for part in args.indices.split(",") if part.strip()]
    except ValueError:
        parser.error(f"--indices must be a comma-separated list of integers, got {args.indices!r}")
    from . import greedy
    trace = greedy.normalize_to_greedy6(indices)
    rows = [
        {
            "step": k,
            "move": step.move,
            "before": "+".join(map(str, step.before)),
            "after": "+".join(map(str, step.after)),
        }
        for k, step in enumerate(trace.steps, start=1)
    ]
    rows.append(
        {
            "step": "final",
            "move": "",
            "before": "",
            "after": "+".join(map(str, trace.final.indices)),
        }
    )
    params = {"target": "quilt", "indices": args.indices, "m": str(trace.final.total)}
    return _record("normalize", params, rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genquilt",
        description="Exact sequences, decompositions, counts, and growth constants.",
    )

    def add(name: str, handler, targets: list[str], **flags) -> None:
        sub = commands.add_parser(name)
        sub.set_defaults(handler=handler, parser=sub)  # usage errors name the verb
        sub.add_argument("target", choices=targets)
        for flag, kw in flags.items():
            sub.add_argument(f"--{flag.replace('_', '-')}", **kw)
        sub.add_argument("--format", choices=("json", "csv"), default="json")

    commands = parser.add_subparsers(dest="command", required=True)
    intarg = {"type": int, "required": True}
    sbargs = {"s": {"type": int}, "b": {"type": int}}
    add("seq", _cmd_seq, ["quilt", "generacci"], count=intarg, **sbargs)
    add("decompose", _cmd_decompose, ["quilt-greedy", "quilt-greedy6", "generacci"], m=intarg, **sbargs)
    add("count", _cmd_count, ["quilt"], m=intarg)
    add("tables", _cmd_tables, ["quilt-count", "greedy-success"], n=intarg)
    add("average", _cmd_average, ["quilt"], n=intarg)
    add("roots", _cmd_roots, ["quilt", "generacci", "quilt-count", "greedy-aux"],
        tol={"type": float}, **sbargs)  # None: _cmd_roots reads numerics.DEFAULT_TOL
    add("greedy", _cmd_greedy, ["ratio"], n=intarg)
    add("stats", _cmd_stats, ["generacci"], n_min=intarg, n_max=intarg, **sbargs)
    add("normalize", _cmd_normalize, ["quilt"], indices={"type": str, "required": True})
    return parser


def _emit(record: dict, fmt: str, out) -> None:
    fallback_columns = record.pop("_columns", [])
    if fmt == "json":
        import json
        out.write(json.dumps(record, indent=2))
        out.write("\n")
        return
    import csv
    import io
    rows = record["rows"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].keys() if rows else fallback_columns)
    for row in rows:
        writer.writerow([str(v) for v in row.values()])
    out.write(buf.getvalue())


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        record = args.handler(args, args.parser)
    except BudgetExceededError as exc:
        print(f"genquilt: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"genquilt: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(record, args.format, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (`| head -1`), which is not an error.  Point
        # stdout at devnull so the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())
