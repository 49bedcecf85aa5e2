import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

import pcrank.matrix
from pcrank import (
    build_harker,
    complete_matrix,
    graph_of,
    parse_matrix,
    rank_gm,
    s_star,
    serialize_matrix,
    validate,
)
from pcrank.cli import _build_parser, main

from helpers import (
    CHAIN_TEXT,
    CIRCULANT_TEXT,
    EXAMPLE4_TEXT,
    EXAMPLE4_WEIGHTS,
    HUGE_FRACTION,
    SLACK_OVERFLOW_TEXT,
    SUBNORMAL_PERRON_TEXTS,
    example4,
    random_incomplete,
    record_calls,
    run_cli,
    serialize_by_fstrings,
)

DISCONNECTED_TEXT = "1,2,?,?\n1/2,1,?,?\n?,?,1,3\n?,?,1/3,1\n"
CONSISTENT_TEXT = "1,1/2,1/4\n2,1,1/2\n4,2,1\n"


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.pcm"
    path.write_text(EXAMPLE4_TEXT)
    return str(path)


def write(tmp_path, text, name="m.pcm"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestExitCodes:
    def test_success_is_zero(self, example_file, capsys):
        assert main(["rank", example_file]) == 0
        capsys.readouterr()

    def test_validation_failure_is_one(self, tmp_path, capsys):
        path = write(tmp_path, DISCONNECTED_TEXT)
        assert main(["rank", path]) == 1
        err = capsys.readouterr().err
        assert "Disconnected" in err
        assert "{a1,a2}" in err and "{a3,a4}" in err

    def test_syntax_failure_is_two(self, tmp_path, capsys):
        path = write(tmp_path, "1,oops\n1,1\n")
        assert main(["rank", path]) == 2
        assert "oops" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["1/0", "1e999", pytest.param(HUGE_FRACTION, id="huge")])
    def test_bad_numeral_is_two(self, tmp_path, capsys, token):
        path = write(tmp_path, f"1,{token}\n1,1\n")
        assert main(["rank", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("pcrank: error: line 1, column 3: ")
        assert "Traceback" not in err

    def test_missing_file_is_two(self, capsys):
        assert main(["rank", "/no/such/file.pcm"]) == 2
        capsys.readouterr()

    def test_undecodable_file_is_two(self, tmp_path, capsys):
        path = tmp_path / "bad.pcm"
        path.write_bytes(b"1,2\n\xff,1\n")
        assert main(["rank", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("pcrank: error: ") and "decode" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_shape_failure_is_two(self, tmp_path, capsys):
        path = write(tmp_path, "1,2\n0.5,1,3\n")
        assert main(["rank", path]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "labels, message",
        [("a,a", "duplicate alternative label 'a'"), ("a,#b", "invalid alternative label '#b'")],
        ids=["duplicate", "comment-like"],
    )
    def test_bad_label_is_two(self, tmp_path, capsys, labels, message):
        path = write(tmp_path, f"# a note\n# labels: {labels}\n1,2\n1/2,1\n")
        assert main(["rank", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"pcrank: error: line 2: {message}\n"


class TestRank:
    def test_plain_output(self, example_file, capsys):
        assert main(["rank", example_file]) == 0
        out = capsys.readouterr().out
        assert "a1 0.1818" in out
        assert "a2 0.5455" in out
        assert "a4 0.0909" in out
        assert "ranking: a2 > a1 = a3 > a4" in out
        assert "S*(C)" in out

    def test_lls_matches_gm(self, example_file, capsys):
        assert main(["rank", "--method", "gm", "--format", "structured", example_file]) == 0
        gm = json.loads(capsys.readouterr().out)
        assert main(["rank", "--method", "lls", "--format", "structured", example_file]) == 0
        lls = json.loads(capsys.readouterr().out)
        diff = np.abs(np.array(gm["weights"]) - np.array(lls["weights"])).max()
        assert diff < 1e-9

    @pytest.mark.parametrize("method", ["gm", "lls"])
    def test_pairs_reciprocal_within_tol_give_the_least_squares_fit(self, method):
        # On a path each pair's mean log ratio, (ln c_ij - ln c_ji) / 2, is
        # fitted exactly, however far c_ij * c_ji is from 1.
        text = "1,2,?\n0.5005,1,3\n?,0.333333333333,1\n"
        x2 = (np.log(3) - np.log(0.333333333333)) / 2
        x1 = x2 + (np.log(2) - np.log(0.5005)) / 2
        fit = np.exp([x1, x2, 0.0]) / np.exp([x1, x2, 0.0]).sum()
        got = run_cli(["rank", "--method", method, "--tol", "1e-3", "--format", "structured"], text)
        assert got["exit"] == 0
        assert np.abs(np.array(json.loads(got["stdout"])["weights"]) - fit).max() < 1e-12

    def test_structured_roundtrip(self, example_file, capsys):
        assert main(["rank", "--format", "structured", example_file]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["command"] == "rank"
        assert record["method"] == "gm"
        # weights survive the JSON round trip bit-for-bit
        expected = rank_gm(example4())
        assert record["weights"] == [float(w) for w in expected.weights]
        assert record["s_star"] == s_star(example4(), expected)
        assert record["ranking"] == [["a2"], ["a1", "a3"], ["a4"]]

    def test_normalize_max(self, example_file, capsys):
        assert main(["rank", "--normalize", "max", "--format", "structured", example_file]) == 0
        record = json.loads(capsys.readouterr().out)
        assert max(record["weights"]) == pytest.approx(1.0, abs=1e-12)

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(EXAMPLE4_TEXT))
        assert main(["rank", "-"]) == 0
        assert "a2 0.5455" in capsys.readouterr().out

    @pytest.mark.parametrize("text", [EXAMPLE4_TEXT, "# labels: p,q,r,s\n" + EXAMPLE4_TEXT])
    def test_byte_order_mark_ignored(self, tmp_path, capsys, monkeypatch, text):
        """Excel's "CSV UTF-8" and Notepad start the file with a BOM."""
        import io

        assert main(["rank", write(tmp_path, text)]) == 0
        expected = capsys.readouterr().out
        path = tmp_path / "bom.pcm"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert main(["rank", str(path)]) == 0
        assert capsys.readouterr().out == expected
        monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff" + text))
        assert main(["rank", "-"]) == 0
        assert capsys.readouterr().out == expected


class TestValidate:
    def test_ok_summary(self, example_file, capsys):
        assert main(["validate", example_file]) == 0
        assert "OK: reciprocal, connected, 3 of 6 comparisons present" in capsys.readouterr().out

    def test_non_reciprocal_reported(self, tmp_path, capsys):
        path = write(tmp_path, "1,2\n3,1\n")
        assert main(["validate", path]) == 1
        out = capsys.readouterr().out
        assert "NonReciprocal (1,2)" in out
        assert "2 * 3 != 1" in out

    def test_one_sided_missing_and_repair(self, tmp_path, capsys):
        path = write(tmp_path, "1,2\n?,1\n")
        assert main(["validate", path]) == 1
        assert "AsymmetricMissingness" in capsys.readouterr().out
        assert main(["validate", "--repair-reciprocal", path]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", [["validate"], ["rank"], ["compare"]])
    def test_repair_keeps_an_unrepresentable_reciprocal_missing(self, command):
        # 1 / 5e-324 overflows: the entry stays missing, so the flag changes
        # nothing, where it used to warn and report a NonPositive inf.
        text = "1,?\n5e-324,1\n"
        repaired = run_cli([*command, "--repair-reciprocal"], text)
        assert repaired == run_cli(command, text)
        assert repaired["exit"] == 1
        assert "AsymmetricMissingness (1,2)" in repaired["stdout"] + repaired["stderr"]

    def test_structured_violations(self, tmp_path, capsys):
        path = write(tmp_path, "1,2\n3,1\n")
        assert main(["validate", "--format", "structured", path]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["ok"] is False
        assert record["violations"][0]["kind"] == "NonReciprocal"
        assert record["violations"][0]["i"] == 1
        assert record["violations"][0]["j"] == 2

    def test_strict_tolerance_flag(self, tmp_path, capsys):
        # 0.3333333333 * 3 is 1e-10 off: inside the default tolerance,
        # outside strict mode
        path = write(tmp_path, "1,0.3333333333\n3,1\n")
        assert main(["validate", path]) == 0
        assert main(["validate", "--tol", "0", path]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["rank", "validate"])
    @pytest.mark.parametrize("tol", ["-1", "nan", "x"])
    def test_negative_or_nan_tolerance_is_a_usage_error(self, command, tol):
        # -1 used to flag every diagonal 1 as "DiagonalNotOne: expected 1, got 1"
        with pytest.raises(SystemExit) as exit_info:
            run_cli([command, f"--tol={tol}"], "1,3,?\n1/3,1,2\n?,0.5,1\n")
        assert exit_info.value.code == 2

    def test_tolerance_error_names_the_option(self, capsys):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["rank", "--tol", "nan", "m.pcm"])
        assert "argument --tol: expected a number >= 0, got 'nan'" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["0", "1e-3", "inf"])
    def test_nonnegative_tolerances_are_accepted(self, tol):
        got = run_cli(["rank", "--tol", tol], "1,3,?\n1/3,1,2\n?,0.5,1\n")
        assert got["exit"] == 0 and got["stdout"].startswith("a1 0.6667\n")


class TestComplete:
    def test_fills_and_fixed_point(self, example_file, capsys):
        assert main(["complete", example_file]) == 0
        completed_text = capsys.readouterr().out
        completed = parse_matrix(completed_text)
        assert completed.is_complete()
        assert completed.values[0, 1] == pytest.approx(1 / 3, abs=1e-9)
        again = rank_gm(completed).weights
        assert np.abs(again - EXAMPLE4_WEIGHTS).max() < 1e-9

    def test_complete_input_passes_through(self, tmp_path, capsys):
        text = "1,2\n0.5,1\n"
        path = write(tmp_path, text)
        assert main(["complete", path]) == 0
        assert capsys.readouterr().out == text

    def test_disconnected_input_fails(self, tmp_path, capsys):
        path = write(tmp_path, DISCONNECTED_TEXT)
        assert main(["complete", path]) == 1
        capsys.readouterr()

    def test_large_input_roundtrip(self, tmp_path, capsys):
        """n = 200 with about 60 % missing, written as blank-free ``repr``
        decimals: the input the bulk reader takes, through ``complete``."""
        m = random_incomplete(200, np.random.default_rng(2024), p=0.6)
        rows = [",".join("?" if np.isnan(x) else repr(x) for x in row) for row in m.values.tolist()]
        path = write(tmp_path, "\n".join(rows) + "\n")
        assert main(["complete", path]) == 0
        completed = parse_matrix(capsys.readouterr().out)
        assert completed.is_complete()
        present = ~m.missing_mask
        assert np.array_equal(completed.values[present], m.values[present])
        assert parse_matrix(serialize_matrix(completed)).equals(completed)

    def test_bulk_rendering_is_exact(self, tmp_path, capsys):
        """Above the bulk renderer's cutoff, rows that mix in-range entries
        with present ones outside [1e-4, 2**50) print exactly as ``"%.17g"``."""
        m = random_incomplete(30, np.random.default_rng(31), p=0.5)
        values = m.values.copy()
        for (i, j), c in {(0, 1): 1e-5, (2, 5): 2.0**51, (7, 3): 5e-324 * 2**60}.items():
            values[i, j], values[j, i] = c, 1 / c
        rows = [",".join("?" if np.isnan(x) else repr(x) for x in row) for row in values.tolist()]
        path = write(tmp_path, "\n".join(rows) + "\n")
        assert values.size >= pcrank.matrix._BULK_MIN_ENTRIES
        assert main(["complete", path]) == 0
        want = serialize_by_fstrings(complete_matrix(parse_matrix("\n".join(rows))))
        assert capsys.readouterr().out == want

    def test_structured_rows(self, example_file, capsys):
        assert main(["complete", "--format", "structured", example_file]) == 0
        record = json.loads(capsys.readouterr().out)
        values = np.array(record["rows"])
        assert values.shape == (4, 4)
        assert np.abs(values * values.T - 1.0).max() < 1e-12


class TestCompare:
    def test_all_methods_agree_on_example(self, example_file, capsys):
        assert main(["compare", "--format", "structured", example_file]) == 0
        record = json.loads(capsys.readouterr().out)
        methods = {entry["method"]: entry for entry in record["methods"]}
        assert set(methods) == {"gm", "lls", "harker"}
        gm = np.array(methods["gm"]["weights"])
        lls = np.array(methods["lls"]["weights"])
        assert np.abs(gm - lls).max() < 1e-9
        assert methods["harker"]["ranking"] == methods["gm"]["ranking"]
        assert record["errors"] == []

    def test_plain_table(self, example_file, capsys):
        assert main(["compare", example_file]) == 0
        out = capsys.readouterr().out
        for method in ("gm", "lls", "harker"):
            assert method in out
        assert "max pairwise weight difference" in out

    def test_consistent_matrix_all_methods_identical(self, tmp_path, capsys):
        path = write(tmp_path, CONSISTENT_TEXT)
        assert main(["compare", "--format", "structured", path]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["max_pairwise_diff"] < 1e-9

    def test_validates_once(self, example_file, capsys, monkeypatch):
        calls = record_calls(monkeypatch, validate)
        assert main(["compare", "--format", "structured", example_file]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_takes_logarithms_once(self, example_file, capsys, monkeypatch):
        """np.log runs over the present entries once, when prepare assembles
        the problem."""
        log, sizes = np.log, []
        present = int((~example4().missing_mask).sum())

        def counting(x, *args, **kwargs):
            sizes.append(np.size(x))
            return log(x, *args, **kwargs)

        monkeypatch.setattr(np, "log", counting)
        assert main(["compare", "--format", "structured", example_file]) == 0
        capsys.readouterr()
        assert sizes.count(present) == 1

    @pytest.mark.parametrize("func", [graph_of, build_harker], ids=["graph", "harker_matrix"])
    def test_builds_once(self, example_file, capsys, monkeypatch, func):
        calls = record_calls(monkeypatch, func)
        assert main(["compare", "--format", "structured", example_file]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_reuses_the_parser(self, example_file, capsys, monkeypatch):
        calls = record_calls(monkeypatch, _build_parser)
        assert main(["compare", "--format", "structured", example_file]) == 0
        capsys.readouterr()
        assert calls == []

    def test_finds_missing_entries_once(self, example_file, capsys, monkeypatch):
        """np.isnan runs over the matrix once, when parse_matrix builds it."""
        isnan, shapes = np.isnan, []

        def counting(x, *args, **kwargs):
            if np.ndim(x) == 2:
                shapes.append(np.shape(x))
            return isnan(x, *args, **kwargs)

        monkeypatch.setattr(np, "isnan", counting)
        assert main(["compare", "--format", "structured", example_file]) == 0
        capsys.readouterr()
        assert shapes == [(4, 4)]

    def test_single_comparison(self, tmp_path, capsys):
        path = write(tmp_path, "1,4\n1/4,1\n")
        assert main(["compare", "--format", "structured", path]) == 0
        record = json.loads(capsys.readouterr().out)
        for entry in record["methods"]:
            assert np.abs(np.array(entry["weights"]) - np.array([0.8, 0.2])).max() < 1e-9


class TestUnscaledWeights:
    """``--normalize none`` leaves each method's weights on its own scale."""

    def test_rank_keeps_every_exponent(self, tmp_path, capsys):
        path = write(tmp_path, CHAIN_TEXT)
        assert main(["rank", "--normalize", "none", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:4] == ["a1 1e+300", "a2 1e+100", "a3 1e-100", "a4 1e-300"]

    def test_compare_differences_at_unit_sum(self, tmp_path, capsys):
        path = write(tmp_path, CONSISTENT_TEXT)
        assert main(["compare", "--normalize", "none", "--format", "structured", path]) == 0
        assert json.loads(capsys.readouterr().out)["max_pairwise_diff"] < 1e-12
        assert main(["compare", "--normalize", "none", path]) == 0
        header, *rows, last = capsys.readouterr().out.splitlines()
        assert float(last.removeprefix("max pairwise weight difference: ")) < 1e-12

        assert header.split() == ["method", "a1", "a2", "a3", "S*(C)", "ranking"]
        label_ends = [m.end() for m in re.finditer(r"\S+", header)][1:5]
        assert [row.split()[0] for row in rows] == ["gm", "lls", "harker"]
        for row in rows:
            _, *cells, s, ranking = row.split(maxsplit=5)
            assert all(float(c) > 0 for c in cells) and float(s) < 1e-12
            assert ranking == "a3 > a2 > a1"
            assert [m.end() for m in re.finditer(r"\S+", row)][1:5] == label_ends

    def test_compare_weights_whose_sum_overflows(self, tmp_path, capsys):
        # LLS is anchored at a1 = 1, so its weights are 1, 1e308, 1e308.
        path = write(tmp_path, "1,1e-308,1e-308\n1e308,1,1\n1e308,1,1\n")
        assert main(["compare", "--normalize", "none", "--format", "structured", path]) == 0
        record = json.loads(capsys.readouterr().out)
        assert [r["method"] for r in record["methods"]] == ["gm", "lls"]
        assert record["max_pairwise_diff"] < 1e-12


class TestMethodFailures:
    """A valid matrix whose weights do not fit in a float: every method fails
    with the same typed error (gm and lls overflow, Harker's eigenvector
    underflows)."""

    COMMANDS = [["rank", "--method", m] for m in ("gm", "lls", "harker")] + [
        ["complete"],
        ["compare"],
    ]

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_one_line_exit_one(self, tmp_path, capsys, command, fmt):
        path = write(tmp_path, CHAIN_TEXT)
        assert main([*command, "--format", fmt, path]) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"pcrank: {command[-1]}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert "Traceback" not in err
        if command[0] != "compare":
            assert out == ""
            assert "not representable" in err

    def test_compare_lists_every_error(self, tmp_path, capsys):
        path = write(tmp_path, CHAIN_TEXT)
        assert main(["compare", "--format", "structured", path]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["methods"] == []
        assert [e["method"] for e in record["errors"]] == ["gm", "lls", "harker"]
        assert "not representable" in record["errors"][0]["error"]

    def test_compare_plain_error_rows(self, tmp_path, capsys):
        path = write(tmp_path, CHAIN_TEXT)
        assert main(["compare", path]) == 1
        out = capsys.readouterr().out
        for method in ("gm", "lls", "harker"):
            assert f"\n{method:<8}ERROR: " in out

    def test_compare_succeeds_if_any_method_does(self, tmp_path, capsys):
        # unnormalized GM weights (1e300 .. 1e-300) fit; anchored LLS ones do not
        path = write(tmp_path, CHAIN_TEXT)
        assert main(["compare", "--normalize", "none", "--format", "structured", path]) == 0
        out, err = capsys.readouterr()
        record = json.loads(out)
        assert [r["method"] for r in record["methods"]] == ["gm"]
        assert [e["method"] for e in record["errors"]] == ["lls", "harker"]
        assert err == ""


class TestOverflowingHarker:
    """Valid matrices whose Harker iteration meets overflow: one typed error
    line for Harker, no warning and no traceback."""

    def test_compare_reports_the_eigenvalue_beside_gm_and_lls(self):
        got = run_cli(["compare"], CIRCULANT_TEXT)
        assert got["exit"] == 0 and got["stderr"] == ""
        lines = got["stdout"].splitlines()
        assert [line.split()[0] for line in lines[1:4]] == ["gm", "lls", "harker"]
        assert lines[1].split()[1:7] == ["0.1667"] * 6 == lines[2].split()[1:7]
        assert lines[3] == "harker  ERROR: eigenvalue is not representable in double precision"

    def test_rank_harker_is_one_line(self):
        got = run_cli(["rank", "--method", "harker"], CIRCULANT_TEXT)
        assert got == {
            "exit": 1,
            "stdout": "",
            "stderr": "pcrank: harker: eigenvalue is not representable in double precision\n",
        }

    def test_compare_with_an_overflowing_slack(self):
        got = run_cli(["compare"], SLACK_OVERFLOW_TEXT)
        assert got["exit"] == 1
        assert got["stderr"] == "pcrank: compare: no method produced weights\n"
        assert [line.split()[0] for line in got["stdout"].splitlines()[1:4]] == ["gm", "lls", "harker"]

    def test_rank_harker_with_a_subnormal_perron_entry(self):
        got = run_cli(["rank", "--method", "harker"], SUBNORMAL_PERRON_TEXTS[2933])
        assert got == {
            "exit": 1,
            "stdout": "",
            "stderr": "pcrank: harker: eigenvector is not representable in double precision\n",
        }

    def test_compare_with_a_subnormal_perron_entry_and_no_weights(self):
        got = run_cli(["compare"], SUBNORMAL_PERRON_TEXTS[2933])
        assert got["exit"] == 1
        assert got["stderr"] == "pcrank: compare: no method produced weights\n"
        rows = got["stdout"].splitlines()[1:4]
        assert [row.split()[:2] for row in rows] == [
            ["gm", "ERROR:"],
            ["lls", "ERROR:"],
            ["harker", "ERROR:"],
        ]

    def test_compare_with_a_subnormal_perron_entry_beside_gm_and_lls(self):
        got = run_cli(["compare"], SUBNORMAL_PERRON_TEXTS[339])
        assert got["exit"] == 0 and got["stderr"] == ""
        rows = got["stdout"].splitlines()[1:4]
        assert [row.split()[0] for row in rows] == ["gm", "lls", "harker"]
        assert "ERROR" not in rows[0] + rows[1]
        assert rows[2] == "harker  ERROR: eigenvector is not representable in double precision"


def test_console_script_installed(example_file):
    # Runs the target declared under [project.scripts] the way the installed
    # script would, so the check needs no installation.
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["pcrank"]
    module, func = target.split(":")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", f"from {module} import {func}; {func}()", "rank", example_file],
        capture_output=True,
        text=True,
        check=False,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert "a2 0.5455" in result.stdout


def test_runs_without_scipy(example_file):
    # The only linear algebra is numpy's: a fresh process that imports the
    # command line and runs every method loads no scipy module.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "import pcrank.cli\n"
        f"code = pcrank.cli.main(['compare', {example_file!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=False, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 []"
