"""Property tests of the failure surface: every input ends in weights or a
typed, documented error, and the CLI keeps its exit-code contract."""

import io
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcrank import PCMatrix, UnrepresentableWeightsError, complete_matrix, rank_gm, rank_lls
from pcrank.cli import main

#: Byte pieces that reach the parser's branches: numerals, fractions,
#: missing marks, separators, comments, a bad token and undecodable bytes.
PIECES = [
    b"1", b"2", b"1/2", b"1/3", b"3", b"0.5", b"?", b",", b",", b"\n", b"\n", b" ",
    b"1e200", b"1e-200", b"1e999", b"0", b"-1", b"1/0", b"x", b"# labels: a,b\n",
    b"\xff", b"\xc3\xa9",
]

COMMANDS = [["rank", "--method", m] for m in ("gm", "lls", "harker")] + [
    ["validate"],
    ["complete"],
    ["compare"],
]


@st.composite
def cli_args(draw):
    argv = list(draw(st.sampled_from(COMMANDS)))
    argv += ["--format", draw(st.sampled_from(["plain", "structured"]))]
    if draw(st.booleans()):
        argv += ["--tol", "0"]
    if draw(st.booleans()):
        argv.append("--repair-reciprocal")
    if argv[0] in ("rank", "compare"):
        argv += ["--normalize", draw(st.sampled_from(["sum", "max", "none"]))]
    return argv


@pytest.fixture(scope="module")
def matrix_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "m.pcm"


@settings(max_examples=300, deadline=None)
@given(
    data=st.one_of(st.binary(max_size=64), st.lists(st.sampled_from(PIECES), max_size=40).map(b"".join)),
    argv=cli_args(),
)
def test_main_exits_by_contract_on_any_bytes(matrix_file, data, argv):
    matrix_file.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, str(matrix_file)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@st.composite
def wide_range_matrices(draw):
    """Valid matrices on a random tree plus extra edges (n = 2 included), log
    ratios up to +-700, and reciprocals rounded to a decimal that is
    reciprocal only within the default tolerance."""
    n = draw(st.integers(2, 8))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    if n > 2:
        extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges |= {(i, j) for i, j in draw(st.lists(extra, max_size=n)) if i < j}
    scale = draw(st.sampled_from([1.0, 30.0, 300.0, 700.0]))
    digits = draw(st.sampled_from([None, 10, 12]))
    values = np.full((n, n), np.nan)
    np.fill_diagonal(values, 1.0)
    for i, j in edges:
        c = float(np.exp(draw(st.floats(-scale, scale))))
        values[i, j] = c
        values[j, i] = 1.0 / c if digits is None else float(f"{1.0 / c:.{digits}g}")
    return PCMatrix(values)


@settings(max_examples=200, deadline=None)
@given(m=wide_range_matrices(), normalization=st.sampled_from(["sum", "max", "none"]))
def test_methods_return_or_raise_typed_error(m, normalization):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method in (rank_gm, rank_lls):
            try:
                method(m, normalization)
            except UnrepresentableWeightsError:
                pass
        try:
            complete_matrix(m)
        except UnrepresentableWeightsError:
            pass
