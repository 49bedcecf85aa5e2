import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

from pcrank import parse_matrix, rank_gm, s_star
from pcrank.cli import main

from helpers import (
    CHAIN_TEXT,
    EXAMPLE4_TEXT,
    EXAMPLE4_WEIGHTS,
    HUGE_FRACTION,
    example4,
    record_validate_calls,
)

DISCONNECTED_TEXT = "1,2,?,?\n1/2,1,?,?\n?,?,1,3\n?,?,1/3,1\n"


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
        path = write(tmp_path, "1,1/2,1/4\n2,1,1/2\n4,2,1\n")
        assert main(["compare", "--format", "structured", path]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["max_pairwise_diff"] < 1e-9

    def test_validates_once(self, example_file, capsys, monkeypatch):
        calls = record_validate_calls(monkeypatch)
        assert main(["compare", "--format", "structured", example_file]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_single_comparison(self, tmp_path, capsys):
        path = write(tmp_path, "1,4\n1/4,1\n")
        assert main(["compare", "--format", "structured", path]) == 0
        record = json.loads(capsys.readouterr().out)
        for entry in record["methods"]:
            assert np.abs(np.array(entry["weights"]) - np.array([0.8, 0.2])).max() < 1e-9


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
