"""GM and LLS by conjugate gradients over the edge list on large sparse
matrices, and the direct solve they fall back to everywhere else."""

import json
from pathlib import Path

import numpy as np
import pytest

import pcrank.gm
import pcrank.lls
from pcrank import build_lls_system, build_system, complete_matrix, prepare, rank_gm, rank_lls
from pcrank.gm import _solve_gm, _solve_log_weights
from pcrank.linalg import _CG_TOL, _CG_WORK, _cg, solve
from pcrank.lls import _solve_lls
from pcrank.matrix import PCMatrix, serialize_matrix

from helpers import LOG9, run_cli, sparse_matrix

GOLDEN = Path(__file__).with_name("data") / "cli_golden.json"


def path_matrix(n: int, rng: np.random.Generator) -> PCMatrix:
    x = np.full((n, n), np.nan)
    np.fill_diagonal(x, 0.0)
    steps = rng.uniform(-LOG9, LOG9, n - 1)
    i = np.arange(n - 1)
    x[i, i + 1], x[i + 1, i] = steps, -steps
    return PCMatrix(np.exp(x))


def tries_cg(m: PCMatrix) -> bool:
    return m.n**3 >= _CG_WORK * np.count_nonzero(~m.missing_mask)


def smallest_qualifying() -> PCMatrix:
    """The first 90 %-missing matrix, by n, on which CG is tried."""
    for n in range(100, 400):
        m = sparse_matrix(n, 0.9, np.random.default_rng(n))
        if tries_cg(m):
            return m
    raise AssertionError("no qualifying n below 400")


SMALLEST = smallest_qualifying()
LARGE = sparse_matrix(600, 0.9, np.random.default_rng(23))


@pytest.fixture
def cg_results(monkeypatch):
    """Each CG result, None for a fall-back, from GM's and LLS's solves."""
    results = []

    def recording(*args):
        x = _cg(*args)
        results.append(x)
        return x

    monkeypatch.setattr(pcrank.gm, "_cg", recording)
    monkeypatch.setattr(pcrank.lls, "_cg", recording)
    return results


def cholesky_lls(p, anchor):
    keep = np.arange(p.matrix.n) != anchor
    return np.insert(solve(build_lls_system(p, anchor), p.rhs[keep]), anchor, 0.0)


def test_smallest_qualifying_is_near_the_cutoff():
    assert 150 <= SMALLEST.n <= 250
    assert not tries_cg(sparse_matrix(SMALLEST.n - 10, 0.9, np.random.default_rng(0)))
    assert tries_cg(LARGE)


@pytest.mark.parametrize("m", [SMALLEST, LARGE], ids=lambda m: f"n{m.n}")
def test_weights_match_cholesky(cg_results, m):
    """GM and LLS at three anchors take the CG solution, within 1e-12 of the
    guarded solve (`linalg.solve`), and each passes the backward-stable
    residual test against the dense matrix."""
    p = prepare(m)
    n = m.n
    a = build_system(p)
    x = solve(a, p.rhs)
    w = _solve_gm(p)[0]
    assert np.abs(w / np.exp(x) - 1.0).max() <= 1e-12
    got = np.log(w)
    assert np.abs(a @ got - p.rhs).max() <= _CG_TOL * (n * np.abs(got).max() + np.abs(p.rhs).max())
    for anchor in (0, n // 2, n - 1):
        w = _solve_lls(p, anchor)[0]
        assert np.abs(w / np.exp(cholesky_lls(p, anchor)) - 1.0).max() <= 1e-12
    assert len(cg_results) == 4 and all(x is not None for x in cg_results)


def test_path_graph_falls_back_bit_for_bit(cg_results):
    p = prepare(path_matrix(300, np.random.default_rng(4)))
    assert tries_cg(p.matrix)
    assert _solve_log_weights(p).tobytes() == solve(build_system(p), p.rhs).tobytes()
    assert _solve_lls(p, 7)[0].tobytes() == np.exp(cholesky_lls(p, 7)).tobytes()
    assert cg_results == [None, None]


def test_breakdown_falls_back(monkeypatch, cg_results):
    """A product that returns NaN ends the iteration at its first step."""
    p = prepare(LARGE)
    want_gm, want_lls = _solve_log_weights(p), _solve_lls(p, 3)[0]

    def nan_product(p):
        return lambda x: np.full_like(x, np.nan)

    monkeypatch.setattr(pcrank.gm, "_edge_laplacian", nan_product)
    monkeypatch.setattr(pcrank.lls, "_edge_laplacian", nan_product)
    cg_results.clear()
    assert _solve_log_weights(p).tobytes() == solve(build_system(p), p.rhs).tobytes()
    assert _solve_lls(p, 3)[0].tobytes() == np.exp(cholesky_lls(p, 3)).tobytes()
    assert cg_results == [None, None]
    assert np.abs(_solve_log_weights(p) - want_gm).max() <= 1e-12
    assert np.abs(_solve_lls(p, 3)[0] / want_lls - 1.0).max() <= 1e-12


def test_kernel_on_dense_products():
    rng = np.random.default_rng(9)
    b = rng.standard_normal((200, 200))
    spd = b @ b.T / 200 + 4 * np.eye(200)  # eigenvalues in about [4, 8]
    rhs = rng.standard_normal(200)
    x = _cg(lambda v: spd @ v, np.diag(spd).copy(), rhs, float(np.abs(spd).sum(axis=1).max()))
    assert np.abs(x - np.linalg.solve(spd, rhs)).max() <= 1e-12
    indefinite = spd - 6 * np.eye(200)
    assert _cg(lambda v: indefinite @ v, np.abs(np.diag(indefinite)), rhs, 1e3) is None


def test_small_and_dense_inputs_never_try_cg(cg_results):
    """Not the golden corpus (n <= 12), nor n = 300 with 20 % missing."""
    with open(GOLDEN, encoding="utf-8") as fh:
        corpus = json.load(fh)
    for entry in corpus:
        for run in entry["runs"]:
            run_cli(run["argv"], entry["text"])
    rng = np.random.default_rng(30)
    for _ in range(2):
        m = sparse_matrix(300, 0.2, rng)
        assert not tries_cg(m)
        rank_gm(m), rank_lls(m, anchor=299), complete_matrix(m)
    assert cg_results == []


def test_compare_through_the_cli(cg_results):
    got = run_cli(["compare", "--format", "structured"], serialize_matrix(SMALLEST))
    assert got["exit"] == 0 and got["stderr"] == ""
    methods = {r["method"]: np.array(r["weights"]) for r in json.loads(got["stdout"])["methods"]}
    assert np.abs(methods["gm"] / methods["lls"] - 1.0).max() <= 1e-12
    assert len(cg_results) == 2 and all(x is not None for x in cg_results)


def test_complete_keeps_present_entries(cg_results):
    m = SMALLEST
    completed = complete_matrix(m)
    present = ~m.missing_mask
    assert completed.values[present].tobytes() == m.values[present].tobytes()
    assert np.abs(completed.values * completed.values.T - 1.0).max() < 1e-12
    assert cg_results and cg_results[0] is not None


@pytest.mark.parametrize("missing", [0.98, 0.99])
def test_gm_matches_cholesky_on_very_sparse_graphs(cg_results, missing):
    """GM's test takes ||L||_inf, as LLS's does, not ||L + J||_inf = n: at
    the solution J x = sum(x) is about 0, since b sums to 0."""
    for seed in range(3):
        p = prepare(sparse_matrix(600, missing, np.random.default_rng([seed, 98])))
        x = solve(build_system(p), p.rhs)
        assert np.abs(_solve_log_weights(p) - x).max() <= 1e-13 * np.abs(x).max()
    assert len(cg_results) == 3 and all(x is not None for x in cg_results)
