"""``make_cli_golden.py --diff``: its size report on hand-made outputs, and
its exit code."""

import json

import pytest

import make_cli_golden
from make_cli_golden import largest_change


def run(stdout, exit=0, stderr=""):
    return {"exit": exit, "stdout": stdout, "stderr": stderr}


def test_plain_numbers_across_column_padding():
    want = run("method  a1      S*(C)  ranking\ngm      2,1e-20  1.562e-30  a1 > a2\n")
    got = run("method  a1      S*(C)  ranking\ngm      2.5,2e-20   9.83e-31  a1 > a2\n")
    assert largest_change(want, got, False) == (
        "largest change 0.5 absolute (of 2), 0.5 relative (of 1e-20)"
    )


def test_structured_floats_only():
    def out(weights, residual):
        return json.dumps({"n": 2, "weights": weights, "diagnostics": {"residual": residual}})

    want, got = run(out([2.0, 1.0], 1e-20)), run(out([2.5, 1.0], 2e-20))
    assert largest_change(want, got, True) == (
        "largest change 0.5 absolute (of 2), 0.5 relative (of 1e-20)"
    )


@pytest.mark.parametrize(
    "want, got, structured",
    [
        (run("a1 > a2\n"), run("a1 = a2\n"), False),
        (run("0.5,0.5\n"), run("0.5,0.5,1\n"), False),
        (run('{"n": 2, "w": 0.5}'), run('{"n": 3, "w": 0.5}'), True),
        (run("", 1, "NonReciprocal (1,2): 7 * 0.5 != 1\n"), run("", 1, "Disconnected\n"), False),
    ],
    ids=["words", "count", "json-int", "stderr"],
)
def test_more_than_numbers(want, got, structured):
    assert largest_change(want, got, structured) == "more than the numbers differs"


def test_exit_code():
    assert largest_change(run("1\n"), run("", 1, "error\n"), False) == "exit code differs"


@pytest.mark.parametrize(
    "changed, code, out",
    [
        ([], 0, "no run differs\n"),
        (["a: rank (stdout)", "b: compare (exit)"], 1, "a: rank (stdout)\nb: compare (exit)\n"),
    ],
    ids=["none-differs", "some-differ"],
)
def test_diff_exit_code(monkeypatch, capsys, changed, code, out):
    monkeypatch.setattr(make_cli_golden, "diff_golden", lambda: changed)
    monkeypatch.setattr(make_cli_golden, "write_golden", pytest.fail)
    assert make_cli_golden.main(["--diff"]) == code
    assert capsys.readouterr().out == out
