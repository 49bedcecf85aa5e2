"""The three method matrices, written from the edge list, equal their dense
definitions bit for bit: GM's L + J, LLS's Laplacian less its anchor row and
column, and Harker's B from the n x n missing mask."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcrank import PCMatrix, build_harker, build_lls_system, build_system, graph_of, laplacian, prepare

from helpers import random_incomplete


def _dense_harker(m: PCMatrix) -> np.ndarray:
    b = np.where(m.missing_mask, 0.0, m.values)
    np.fill_diagonal(b, m.missing_mask.sum(axis=1) + 1)
    return b


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _check(m: PCMatrix) -> None:
    p = prepare(m)
    lap = laplacian(graph_of(m))
    assert _same_bits(build_system(p), lap + 1.0)
    for k in range(m.n):
        assert _same_bits(build_lls_system(p, k), np.delete(np.delete(lap, k, 0), k, 1))
    assert _same_bits(build_harker(p), _dense_harker(m))


@st.composite
def connected_matrices(draw):
    """Reciprocal matrices on a spanning tree, a tree plus random edges, or
    all pairs, with the alternatives shuffled; n = 2 included."""
    n = draw(st.integers(2, 12))
    order = draw(st.permutations(range(n)))
    edges = {(order[draw(st.integers(0, i - 1))], order[i]) for i in range(1, n)}
    shape = draw(st.sampled_from(["tree", "extra", "complete"]))
    if shape == "extra":
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges |= {(i, j) for i, j in draw(st.lists(pair, max_size=2 * n)) if i != j}
    elif shape == "complete":
        edges = {(i, j) for i in range(n) for j in range(i + 1, n)}
    values = np.full((n, n), np.nan)
    np.fill_diagonal(values, 1.0)
    for i, j in edges:
        c = float(np.exp(draw(st.floats(-5.0, 5.0))))
        values[i, j], values[j, i] = c, 1.0 / c
    return PCMatrix(values)


@settings(max_examples=200, deadline=None)
@given(connected_matrices())
def test_systems_match_dense_definitions(m):
    _check(m)


@pytest.mark.parametrize("n, missing", [(45, 0.6), (200, 0.9)])
def test_systems_match_dense_definitions_at_size(n, missing):
    _check(random_incomplete(n, np.random.default_rng(n), missing))
