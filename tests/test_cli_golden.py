"""Pins the command line's output on a fixed corpus of matrices.

``data/cli_golden.json`` holds each input matrix with every command run on it
and the exit code, stdout and stderr it produced (see ``make_cli_golden.py``).
Exit code, stderr and plain stdout must match exactly.  Structured stdout is
compared as parsed JSON: everything but floats exactly, floats within 1e-12
relative (or 1e-12 absolute, for rounding-noise residuals near zero), so a
BLAS change in the last bits cannot fail the test.
"""

import json
import math
from pathlib import Path

import pytest

from helpers import run_cli

GOLDEN = Path(__file__).with_name("data") / "cli_golden.json"
FLOAT_TOL = 1e-12


def assert_json_close(got, want, where="$"):
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL), (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            assert_json_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, f"{where}[{k}]")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def _entries():
    with open(GOLDEN, encoding="utf-8") as fh:
        return [pytest.param(entry, id=entry["name"]) for entry in json.load(fh)]


@pytest.mark.parametrize("entry", _entries())
def test_cli_output_matches_golden(entry):
    for run in entry["runs"]:
        got = run_cli(run["argv"], entry["text"])
        label = " ".join(run["argv"])
        assert got["exit"] == run["exit"], label
        assert got["stderr"] == run["stderr"], label
        if "structured" in run["argv"] and run["stdout"]:
            assert_json_close(json.loads(got["stdout"]), json.loads(run["stdout"]), label)
        else:
            assert got["stdout"] == run["stdout"], label


def test_corpus_covers_every_exit_path():
    runs = [run for entry in _entries() for run in entry.values[0]["runs"]]
    assert {run["exit"] for run in runs} == {0, 1}
    assert {run["argv"][0] for run in runs} == {"rank", "validate", "complete", "compare"}
