"""CLI surface: subcommand grammar, formats, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from genquilt.cli import main
from genquilt.quilt import quilt_terms

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

    def test_generacci(self, capsys):
        record = run_json(capsys, "roots", "generacci", "--s", "1", "--b", "1")
        assert abs(float(record["rows"][0]["dominant_root"]) - 1.6180339887) < 1e-9

    def test_greedy_aux(self, capsys):
        record = run_json(capsys, "roots", "greedy-aux")
        # dominant root of r^5 - r^4 - 1 coincides with the quilt growth rate
        assert abs(float(record["rows"][0]["dominant_root"]) - 1.32472) < 1e-5

    def test_bad_tol_is_usage_error(self, capsys):
        code, _, err = run(capsys, "roots", "quilt", "--tol", "-1")
        assert code == 2


class TestGreedyRatio:
    def test_n100(self, capsys):
        record = run_json(capsys, "greedy", "ratio", "--n", "100")
        assert abs(float(record["rows"][0]["rho_decimal"]) - 0.92627) < 5e-5


class TestStats:
    def test_kentucky_fit(self, capsys):
        record = run_json(
            capsys, "stats", "generacci", "--s", "1", "--b", "2", "--n-min", "10", "--n-max", "25"
        )
        row = record["rows"][0]
        assert float(row["a_hat"]) > 0
        assert float(row["c_hat"]) > 0
        assert float(row["ks_distance"]) < 0.05


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


@pytest.mark.parametrize(
    "argv",
    [
        ("seq", "quilt", "--count", "3000000"),
        ("seq", "generacci", "--s", "1000000000", "--b", "1000000000", "--count", "1"),
        ("decompose", "generacci", "--s", "1000000000", "--b", "1000000000", "--m", "5"),
        ("tables", "quilt-count", "--n", "300000"),
        ("greedy", "ratio", "--n", "200000"),
    ],
)
def test_oversized_request_is_refused_before_allocating(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "budget" in err


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
