"""CLI surface: subcommand grammar, formats, determinism, exit codes."""

import contextlib
import csv
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genquilt import stats
from genquilt.cli import main
from genquilt.generacci import SEED_BUDGET, TERMS_BUDGET
from genquilt.greedy import (
    NORMALIZE_INDEX_BUDGET,
    NORMALIZE_PARTS_BUDGET,
    SUCCESS_TABLE_BUDGET,
    greedy6_decompose,
)
from genquilt.numerics import ROOT_DEGREE_BUDGET
from genquilt.quilt import quilt_terms
from genquilt.quilt_count import AVERAGE_BUDGET, COUNT_TABLES_BUDGET
from genquilt.stats import DISTRIBUTION_BUDGET
from test_readme_golden import readme_commands

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestSeq:
    def test_quilt_csv(self, capsys):
        code, out, _ = run(capsys, "seq", "quilt", "--count", "21", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,term"
        assert len(lines) == 22
        assert lines[-1] == "21,465"

    def test_quilt_json(self, capsys):
        record = run_json(capsys, "seq", "quilt", "--count", "6")
        assert record["command"] == "seq"
        assert [r["term"] for r in record["rows"]] == ["1", "2", "3", "4", "5", "7"]
        assert record["meta"]["tool"] == "genquilt"

    def test_generacci(self, capsys):
        record = run_json(capsys, "seq", "generacci", "--s", "1", "--b", "2", "--count", "10")
        assert [r["term"] for r in record["rows"]][-1] == "32"

    def test_generacci_requires_params(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["seq", "generacci", "--count", "5"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: genquilt seq ")


class TestDecompose:
    def test_quilt_greedy_illegal_case(self, capsys):
        record = run_json(capsys, "decompose", "quilt-greedy", "--m", "6")
        assert [(r["index"], r["value"]) for r in record["rows"]] == [(5, "5"), (1, "1")]
        assert all(r["legal"] is False for r in record["rows"])

    def test_quilt_greedy6(self, capsys):
        record = run_json(capsys, "decompose", "quilt-greedy6", "--m", "27")
        assert [(r["index"], r["value"]) for r in record["rows"]] == [(10, "21"), (4, "4"), (2, "2")]

    def test_generacci(self, capsys):
        record = run_json(capsys, "decompose", "generacci", "--s", "1", "--b", "2", "--m", "10")
        assert [(r["index"], r["value"]) for r in record["rows"]] == [(6, "8"), (2, "2")]

    def test_zero_keeps_csv_header(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "generacci", "--s", "1", "--b", "1", "--m", "0", "--format", "csv"
        )
        assert code == 0
        assert out == "index,value\n"

    def test_zero_json_has_no_private_keys(self, capsys):
        record = run_json(capsys, "decompose", "generacci", "--s", "1", "--b", "1", "--m", "0")
        assert set(record) == {"command", "params", "rows", "meta"}
        assert record["rows"] == []


class TestTables:
    def test_quilt_count_csv_final_row(self, capsys):
        code, out, _ = run(capsys, "tables", "quilt-count", "--n", "13", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,d,c,b"
        assert lines[-1] == "13,114,32,11"

    def test_greedy_success_rho_rendering(self, capsys):
        record = run_json(capsys, "tables", "greedy-success", "--n", "17")
        last = record["rows"][-1]
        assert last["h"] == "184"
        assert last["rho"] == "184/199"
        assert last["rho_percent"] == "92.4623"


class TestCountAndAverage:
    def test_count_106(self, capsys):
        record = run_json(capsys, "count", "quilt", "--m", "106")
        assert record["rows"][0]["count"] == "3"

    def test_count_146_digit_quilt_term(self, capsys):
        m = str(quilt_terms(1200).term(1200))
        record = run_json(capsys, "count", "quilt", "--m", m)
        assert record["rows"] == [{"m": m, "count": "1"}]

    def test_average_exponent(self, capsys):
        record = run_json(capsys, "average", "quilt", "--n", "21")
        row = record["rows"][0]
        assert abs(float(row["exponent_estimate"]) - 1.05459) < 0.02
        assert "/" in row["average"]

    def test_average_budget_exit_code(self, capsys):
        code, _, err = run(capsys, "average", "quilt", "--n", "31")
        assert code == 3
        assert "budget" in err


class TestRoots:
    def test_quilt(self, capsys):
        record = run_json(capsys, "roots", "quilt", "--tol", "1e-10")
        row = record["rows"][0]
        assert abs(float(row["dominant_root"]) - 1.32472) < 1e-5
        assert abs(float(row["secondary_modulus"]) - 0.8688) < 1e-3
        assert abs(float(row["leading_constant"]) - 1.26724) < 1e-4

    def test_count_poly(self, capsys):
        record = run_json(capsys, "roots", "quilt-count", "--tol", "1e-10")
        row = record["rows"][0]
        assert abs(float(row["dominant_root"]) - 1.39704) < 1e-5
        assert float(row["leading_constant"]) > 0

    def test_count_poly_at_coarse_tol(self, capsys):
        # the root is polished inside the wide bracket, not left at its midpoint 1.25
        record = run_json(capsys, "roots", "quilt-count", "--tol", "0.5")
        row = record["rows"][0]
        assert (row["dominant_root"], row["error_bound"]) == ("1.39703527535", "0.5")
        assert (row["leading_constant"], row["residual"]) == ("1.47783377288", "8.22978213317e-10")

    def test_generacci(self, capsys):
        record = run_json(capsys, "roots", "generacci", "--s", "1", "--b", "1")
        assert abs(float(record["rows"][0]["dominant_root"]) - 1.6180339887) < 1e-9

    def test_generacci_at_coarse_tol(self, capsys):
        # the bin-level root is polished inside the wide bracket, not left at its midpoint 1.375
        record = run_json(capsys, "roots", "generacci", "--s", "2", "--b", "1", "--tol", "0.5")
        row = record["rows"][0]
        assert (row["dominant_root"], row["leading_constant"]) == ("1.46557123188", "0.896185071926")

    @pytest.mark.parametrize(
        "s, b", [(110, 1), (138, 1), (211, 1), (110, 2), (163, 2), (174, 2), (211, 2), (110, 3), (151, 3), (174, 3)]
    )
    def test_generacci_where_durand_kerner_does_not_settle(self, capsys, s, b):
        # Durand-Kerner on all s + 1 roots of the bin-level polynomial never
        # converges for these pairs; the secondary modulus needs only one
        code, out, err = run(capsys, "roots", "generacci", "--s", str(s), "--b", str(b))
        assert (code, err) == (0, "")
        row = json.loads(out)["rows"][0]
        assert 0 < float(row["secondary_modulus"]) < float(row["dominant_root"])

    def test_greedy_aux(self, capsys):
        record = run_json(capsys, "roots", "greedy-aux")
        # dominant root of r^5 - r^4 - 1 coincides with the quilt growth rate
        assert abs(float(record["rows"][0]["dominant_root"]) - 1.32472) < 1e-5

    def test_bad_tol_is_usage_error(self, capsys):
        for tol in ("-1", "nan", "inf"):
            code, _, err = run(capsys, "roots", "quilt", "--tol", tol)
            assert code == 2, tol
            assert "tol" in err, tol


class TestGreedyRatio:
    def test_n100(self, capsys):
        record = run_json(capsys, "greedy", "ratio", "--n", "100")
        assert abs(float(record["rows"][0]["rho_decimal"]) - 0.92627) < 5e-5

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("n", [1, 5, 6, 17, 100, 2000])
    def test_row_is_the_tables_last_row(self, capsys, n, fmt):
        def rows(*argv):
            code, out, err = run(capsys, *argv, "--n", str(n), "--format", fmt)
            assert code == 0, err
            return json.loads(out)["rows"] if fmt == "json" else list(csv.DictReader(io.StringIO(out)))

        (ratio,) = rows("greedy", "ratio")
        last = rows("tables", "greedy-success")[-1]
        del last["q"]
        assert ratio == last


class TestStats:
    def test_kentucky_fit(self, capsys):
        record = run_json(
            capsys, "stats", "generacci", "--s", "1", "--b", "2", "--n-min", "10", "--n-max", "25"
        )
        row = record["rows"][0]
        assert float(row["a_hat"]) > 0
        assert float(row["c_hat"]) > 0
        assert float(row["ks_distance"]) < 0.05

    def test_range_is_refused_before_any_distribution(self, capsys, monkeypatch):
        calls = []
        build = stats.summand_distribution
        monkeypatch.setattr(stats, "summand_distribution", lambda *a: calls.append(a) or build(*a))
        sb = ("stats", "generacci", "--s", "1", "--b", "1")
        code, out, err = run(capsys, *sb, "--n-min", "1", "--n-max", str(10**12))
        assert (code, out, calls) == (3, "", [])
        assert "budget" in err
        code, out, _ = run(capsys, *sb, "--n-min", "0", "--n-max", "10")
        assert (code, out, calls) == (2, "", [])


class TestNormalize:
    def test_doubled_seven(self, capsys):
        record = run_json(capsys, "normalize", "quilt", "--indices", "7,7")
        rows = record["rows"]
        assert rows[0]["move"] == "1"
        assert rows[0]["before"] == "7+7"
        assert rows[-1]["step"] == "final"
        assert rows[-1]["after"] == "9+2"

    def test_bad_indices_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["normalize", "quilt", "--indices", "7,x"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: genquilt normalize ")


_INDEX_LISTS = st.sampled_from(
    [
        "",
        ",,,",
        "0",
        "=-1,2",
        "7,x",
        "1",
        str(NORMALIZE_INDEX_BUDGET),
        str(NORMALIZE_INDEX_BUDGET + 1),
        ",".join(["1"] * (NORMALIZE_PARTS_BUDGET + 1)),
    ]
)


def _main_in_process(*argv) -> tuple[int, str, str]:
    # like run(), without capsys: a hypothesis example may not share a test's fixture
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(st.lists(_INDEX_LISTS, min_size=1, max_size=3).map(",".join))
def test_normalize_exit_contract(indices):
    # 0, 2 or 3 and never a traceback; a success is deterministic and ends
    # in the Greedy-6 decomposition of the sum.
    argv = ("normalize", "quilt", f"--indices={indices}")
    code, out, err = _main_in_process(*argv)
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    if code:
        assert out == ""
        return
    assert _main_in_process(*argv) == (0, out, err)
    record = json.loads(out)
    m = int(record["params"]["m"])
    final = greedy6_decompose(m).indices if m else ()
    assert record["rows"][-1] == {"step": "final", "move": "", "before": "", "after": "+".join(map(str, final))}


_BIG = str(7 * 10**4299 + 3)  # 4300 digits, the most int() converts by default


def _edges(*budgets: int):
    # 0, -1, 1, a 4300-digit integer, one a digit longer, and the values given
    return st.sampled_from(["0", "-1", "1", _BIG, _BIG + "0", *map(str, budgets)])


def _argvs(verb: str, *targets: str, **flags):
    drawn = [values.map(f"--{flag}={{}}".format) for flag, values in flags.items()]
    formats = st.sampled_from(["--format=json", "--format=csv"])
    return st.tuples(st.just(verb), st.sampled_from(targets), *drawn, formats)


_SB_EDGES = _edges(SEED_BUDGET, SEED_BUDGET + 1)
# s = ROOT_DEGREE_BUDGET puts the degree s + 1 one over its budget, and
# s = 255 is the largest root; s = 110 and 211 are pairs on which
# Durand-Kerner, run on the whole (s,b) polynomial, does not converge
_ROOT_SB_EDGES = _edges(110, 211, 255, ROOT_DEGREE_BUDGET, SEED_BUDGET - 1, SEED_BUDGET, SEED_BUDGET + 1)
_TOL_EDGES = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "5e-324", "0.5", "1e-12"])
_N_EDGES = _edges(6, DISTRIBUTION_BUDGET, DISTRIBUTION_BUDGET + 1)
# seq at TERMS_BUDGET renders for seconds, so its count stops at budget + 1
_COUNT_EDGES = _edges(TERMS_BUDGET + 1)
_VERB_ARGVS = st.one_of(
    _argvs("seq", "quilt", count=_COUNT_EDGES),
    _argvs("seq", "generacci", count=_COUNT_EDGES, s=_SB_EDGES, b=_SB_EDGES),
    _argvs("decompose", "quilt-greedy", "quilt-greedy6", m=_edges()),
    _argvs("decompose", "generacci", m=_edges(), s=_SB_EDGES, b=_SB_EDGES),
    _argvs("count", "quilt", m=_edges()),
    _argvs(
        "tables",
        "quilt-count",
        "greedy-success",
        n=_edges(COUNT_TABLES_BUDGET, COUNT_TABLES_BUDGET + 1, SUCCESS_TABLE_BUDGET, SUCCESS_TABLE_BUDGET + 1),
    ),
    _argvs("average", "quilt", n=_edges(AVERAGE_BUDGET, AVERAGE_BUDGET + 1)),
    _argvs("greedy", "ratio", n=_edges(SUCCESS_TABLE_BUDGET, SUCCESS_TABLE_BUDGET + 1)),
    _argvs(
        "roots", "quilt", "generacci", "quilt-count", "greedy-aux", tol=_TOL_EDGES, s=_ROOT_SB_EDGES, b=_ROOT_SB_EDGES
    ),
    _argvs("stats", "generacci", n_min=_N_EDGES, n_max=_N_EDGES, s=_ROOT_SB_EDGES, b=_ROOT_SB_EDGES),
)


@settings(max_examples=60, deadline=None)
@given(_VERB_ARGVS)
def test_verb_exit_contract(argv):
    # the normalize contract for every other verb, each sized by its flags,
    # in either format; a root printed for a --tol also keeps within it
    code, out, err = _main_in_process(*argv)
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    if code:
        assert out == ""
        return
    assert _main_in_process(*argv) == (0, out, err)
    if argv[0] == "roots":
        if "--format=csv" in argv:  # the csv row has no tol column, so it is read from argv
            row = next(csv.DictReader(io.StringIO(out)))
            tol = next(arg for arg in argv if arg.startswith("--tol=")).removeprefix("--tol=")
        else:
            record = json.loads(out)
            row, tol = record["rows"][0], record["params"]["tol"]
        assert float(row["error_bound"]) <= float(tol)


@pytest.mark.parametrize(
    "argv",
    [
        ("seq", "quilt", "--count", "3000000"),
        ("seq", "quilt", "--count", "40000"),
        ("seq", "generacci", "--s", "1", "--b", "1", "--count", "30000"),
        ("seq", "generacci", "--s", "1000000000", "--b", "1000000000", "--count", "1"),
        ("decompose", "generacci", "--s", "1000000000", "--b", "1000000000", "--m", "5"),
        ("tables", "quilt-count", "--n", "300000"),
        ("greedy", "ratio", "--n", "200000"),
        ("greedy", "ratio", "--n", str(SUCCESS_TABLE_BUDGET + 1)),
        ("roots", "generacci", "--s", "100000", "--b", "1"),
        ("normalize", "quilt", "--indices", ",".join(["1"] * (NORMALIZE_PARTS_BUDGET + 1))),
        ("normalize", "quilt", "--indices", "3000000"),
        ("decompose", "generacci", "--s", "1", "--b", "1000", "--m", str(10**3000)),
    ],
)
def test_oversized_request_is_refused_before_allocating(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "budget" in err


SB1 = "generacci --s 1 --b 1"


@pytest.mark.parametrize(
    "command, code, message",
    [
        ("seq quilt --count 0", 2, "count must be >= 1, got 0"),
        ("seq quilt --count 50001", 3, "budget exceeded: sequence length: requested 50001, budget is 50000"),
        (f"seq {SB1} --count 50001", 3, "budget exceeded: sequence length: requested 50001, budget is 50000"),
        ("tables quilt-count --n 0", 2, "n_max must be >= 1, got 0"),
        ("tables greedy-success --n 0", 2, "n_max must be >= 1, got 0"),
        ("greedy ratio --n 0", 2, "n_max must be >= 1, got 0"),
        ("tables quilt-count --n 10001", 3, "budget exceeded: count table size: requested 10001, budget is 10000"),
        ("tables greedy-success --n 10001", 3, "budget exceeded: success table size: requested 10001, budget is 10000"),
        ("greedy ratio --n 10001", 3, "budget exceeded: success table size: requested 10001, budget is 10000"),
        ("average quilt --n 0", 2, "n must be >= 1, got 0"),
        (f"stats {SB1} --n-min 0 --n-max 6", 2, "n must be >= 1, got 0"),
        ("average quilt --n 31", 3, "budget exceeded: average enumeration index: requested 31, budget is 30"),
        (
            "seq generacci --s 1 --b 500000 --count 3",
            3,
            "budget exceeded: (s,b) seed size: requested 1000001, budget is 1000000",
        ),
        (
            f"stats {SB1} --n-min 496 --n-max 501",
            3,
            "budget exceeded: distribution bin count: requested 501, budget is 500",
        ),
        # the (s,b) sequence length b*n_max + 1, refused before any distribution
        (
            "stats generacci --s 1 --b 100 --n-min 1 --n-max 500",
            3,
            "budget exceeded: sequence length: requested 50001, budget is 50000",
        ),
        (
            "stats generacci --s 1 --b 256 --n-min 1 --n-max 500",
            3,
            "budget exceeded: sequence length: requested 128001, budget is 50000",
        ),
    ],
)
def test_refused_size_exit_code_and_message(capsys, command, code, message):
    assert run(capsys, *command.split()) == (code, "", f"genquilt: {message}\n")


@pytest.mark.parametrize(
    "command",
    ["seq --count 3", "decompose --m 5", "roots", "stats --n-min 1 --n-max 6"],
)
def test_refused_sb_params_are_usage_errors(capsys, command):
    verb, *rest = command.split()
    with pytest.raises(SystemExit) as exc:
        main([verb, "generacci", "--s", "0", "--b", "1", *rest])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: genquilt {verb} ")
    assert captured.err.endswith(f"genquilt {verb}: error: s and b must be >= 1, got (0, 1)\n")


# The genquilt modules each README command loads besides the package, cli
# and generacci: its target's modules and their imports.
VERB_MODULES = {
    "seq quilt --count 21": ("quilt",),
    "seq generacci --s 1 --b 2 --count 10": (),
    "decompose quilt-greedy --m 6": ("greedy", "quilt"),
    "decompose quilt-greedy6 --m 27": ("greedy", "quilt"),
    "decompose generacci --s 1 --b 2 --m 10": (),
    "count quilt --m 106": ("quilt", "quilt_count"),
    "tables quilt-count --n 13": ("quilt", "quilt_count"),
    "tables greedy-success --n 17": ("greedy", "quilt"),
    "average quilt --n 25": ("quilt", "quilt_count"),
    "roots quilt --tol 1e-12": ("numerics", "quilt"),
    "roots generacci --s 2 --b 1": ("numerics",),
    "roots quilt-count": ("numerics", "quilt", "quilt_count"),
    "roots greedy-aux": ("greedy", "numerics", "quilt"),
    "greedy ratio --n 100": ("greedy", "quilt"),
    "stats generacci --s 1 --b 2 --n-min 15 --n-max 25": ("stats",),
    "normalize quilt --indices 7,7": ("greedy", "quilt"),
}


class TestHarness:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_reruns_are_byte_identical(self, capsys):
        outputs = set()
        for _ in range(3):
            for fmt in ("json", "csv"):
                code, out, _ = run(capsys, "tables", "quilt-count", "--n", "10", "--format", fmt)
                assert code == 0
                outputs.add((fmt, out))
        assert len(outputs) == 2

    def test_csv_has_lf_endings(self, capsys):
        code, out, _ = run(capsys, "seq", "quilt", "--count", "3", "--format", "csv")
        assert code == 0
        assert "\r" not in out

    def test_import_needs_no_mpmath(self):
        # Every CLI run is a fresh process that pays for these imports:
        # dataclasses alone pulls in inspect, ast, dis and tokenize.  The
        # oracle is the tests' reference, so no library path may load it:
        # every README example runs here before the check.
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        unwanted = ("mpmath", "dataclasses", "inspect", "platform", "genquilt.oracle")
        examples = [shlex.split(command) for command in readme_commands()]
        code = (
            "import contextlib, io, sys, genquilt.cli\n"
            f"for argv in {examples!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert genquilt.cli.main(argv) == 0, argv\n"
            f"print([m for m in {unwanted!r} if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == b"[]\n"

    def test_package_root_loads_no_submodules(self):
        # Names are imported from their modules, so the package root, which
        # defines its one export, loads no submodule, and a program importing
        # two modules pays for those two and their own imports.
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        heavy = ("genquilt.greedy", "genquilt.numerics", "genquilt.quilt_count", "genquilt.stats")
        code = (
            "import sys, genquilt\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'genquilt'))\n"
            "from genquilt import generacci, quilt\n"
            f"print([m for m in {heavy!r} if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == b"['genquilt']\n[]\n"

    @pytest.mark.parametrize("command", [*sorted(VERB_MODULES), "--help", "count --help"])
    def test_each_verb_loads_only_its_modules(self, command):
        # Every call is a fresh process, so a module it imports and never
        # runs is start-up time wasted.  Each README command runs in its own
        # interpreter, as csv, which needs no json.
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        argv = shlex.split(command)
        if "--help" not in argv:
            argv += ["--format", "csv"]
        code = (
            "import contextlib, io, sys\n"
            "from genquilt.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        code = main(sys.argv[1:])\n"
            "    except SystemExit as exc:  # --help\n"
            "        code = exc.code\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'genquilt'), 'json' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        loaded = ["genquilt", "genquilt.cli"]
        if command in VERB_MODULES:
            loaded += [f"genquilt.{name}" for name in ("generacci", *VERB_MODULES[command])]
        assert proc.stdout.decode() == f"0 {sorted(loaded)} False\n"

    def test_verb_modules_cover_the_readme(self):
        assert set(VERB_MODULES) == set(readme_commands())

    def test_reader_closing_pipe_early_is_not_an_error(self):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "genquilt.cli", "seq", "quilt", "--count", "5000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()  # like `| head -1`: the output is far larger than the pipe buffer
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert b"Traceback" not in err, err.decode()
