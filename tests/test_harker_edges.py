"""Harker's power steps over the edge list on large sparse matrices, against
the dense path that builds B everywhere else."""

import json
from pathlib import Path

import numpy as np
import pytest

import pcrank.harker
import pcrank.linalg
from pcrank import PCMatrix, build_harker, prepare, rank_harker, serialize_matrix
from pcrank.harker import _EDGE_WORK, _edge_product, _solve_harker

from helpers import random_incomplete, record_calls, run_cli, sparse_matrix

GOLDEN = Path(__file__).with_name("data") / "cli_golden.json"


def qualifies(m: PCMatrix) -> bool:
    return m.n**3 >= _EDGE_WORK * np.count_nonzero(~m.missing_mask)


def smallest_qualifying() -> int:
    """The smallest n, by 10s, whose 90 %-missing matrix takes the edge path."""
    for n in range(400, 700, 10):
        if qualifies(sparse_matrix(n, 0.9, np.random.default_rng(n))):
            return n
    raise AssertionError("no qualifying n below 700")


SMALLEST = smallest_qualifying()


@pytest.fixture
def edge_products(monkeypatch):
    """Whether each of Harker's solves took the edge path."""
    taken = []

    def recording(p):
        product = _edge_product(p)
        taken.append(product is not None)
        return product

    monkeypatch.setattr(pcrank.harker, "_edge_product", recording)
    return taken


def dense_solve(monkeypatch, p):
    with monkeypatch.context() as patch:
        patch.setattr(pcrank.harker, "_edge_product", lambda p: None)
        return _solve_harker(p)


def assert_same_solution(got, want):
    (v, diag), (w, want_diag) = got, want
    lam = want_diag["lambda_max"]
    assert np.abs(v / w - 1.0).max() <= 1e-12
    assert diag["lambda_max"] == pytest.approx(lam, rel=1e-12, abs=0)
    # the residuals agree on the scale of the iteration's test
    assert abs(diag["eigen_residual"] - want_diag["eigen_residual"]) <= 1e-12 * lam * w.max()


def test_smallest_qualifying_is_near_the_cutoff():
    assert 450 <= SMALLEST <= 560
    assert not qualifies(sparse_matrix(SMALLEST - 20, 0.9, np.random.default_rng(0)))


@pytest.mark.parametrize("consistent", [False, True], ids=["inconsistent", "consistent"])
@pytest.mark.parametrize("n", [SMALLEST, 600])
def test_matches_the_dense_path(monkeypatch, edge_products, n, consistent):
    p = prepare(sparse_matrix(n, 0.9, np.random.default_rng([n, consistent]), consistent))
    want = dense_solve(monkeypatch, p)
    got = _solve_harker(p)
    assert edge_products == [True]
    assert_same_solution(got, want)
    v, diag = got
    b = build_harker(p)
    assert np.abs(b @ v - diag["lambda_max"] * v).max() <= 1e-12 * diag["lambda_max"] * v.max()


def test_diagonal_within_tolerance_reads_as_one(monkeypatch, edge_products):
    # B's diagonal is s_i + 1 whatever c_ii is, and validation lets c_ii
    # differ from 1 by up to its tolerance
    rng = np.random.default_rng(5)
    values = sparse_matrix(600, 0.9, rng).values.copy()
    np.fill_diagonal(values, 1.0 + rng.uniform(-1e-6, 1e-6, 600))
    p = prepare(PCMatrix(values), tol=1e-6)
    assert_same_solution(_solve_harker(p), dense_solve(monkeypatch, p))
    assert edge_products == [True]


def test_small_and_dense_inputs_never_take_the_edge_path(edge_products):
    """Not the golden corpus (n <= 12), nor n <= 24, nor n = 300 with 20 %
    missing; a matrix shaped like the benchmark's n = 600 with 90 % missing
    does."""
    with open(GOLDEN, encoding="utf-8") as fh:
        corpus = json.load(fh)
    for entry in corpus:
        for run in entry["runs"]:
            run_cli(run["argv"], entry["text"])
    rng = np.random.default_rng(31)
    for n in range(2, 25):
        m = random_incomplete(n, rng, p=0.9)
        assert not qualifies(m)
        rank_harker(m)
    for _ in range(2):
        m = sparse_matrix(300, 0.2, rng)
        assert not qualifies(m)
        rank_harker(m)
    assert edge_products and not any(edge_products)
    rank_harker(sparse_matrix(600, 0.9, rng))
    assert edge_products[-1] is True


def test_power_steps_reaching_the_switch_build_b_once(monkeypatch, edge_products):
    """A consistent matrix at 99 % missing needs more than n // 3 power steps:
    B is built once, at the first Noda step, which continues from the edge
    path's vector."""
    p = prepare(sparse_matrix(600, 0.99, np.random.default_rng(3), consistent=True))
    want = dense_solve(monkeypatch, p)
    builds = record_calls(monkeypatch, build_harker)
    noda_steps = record_calls(monkeypatch, pcrank.linalg._shifted_solve)
    got = _solve_harker(p)
    assert edge_products == [True]
    assert len(builds) == 1 and noda_steps
    assert_same_solution(got, want)


def test_converging_early_builds_no_b(monkeypatch, edge_products):
    builds = record_calls(monkeypatch, build_harker)
    dense = record_calls(monkeypatch, pcrank.linalg.power_iteration)
    rank_harker(sparse_matrix(600, 0.9, np.random.default_rng(4)))
    assert edge_products == [True] and builds == [] and dense == []


def test_compare_through_the_cli(edge_products):
    m = sparse_matrix(SMALLEST, 0.9, np.random.default_rng(6))
    got = run_cli(["compare", "--format", "structured"], serialize_matrix(m))
    assert got["exit"] == 0 and got["stderr"] == ""
    (harker,) = [r for r in json.loads(got["stdout"])["methods"] if r["method"] == "harker"]
    w = np.array(harker["weights"])
    ratios = build_harker(m) @ w / w  # a Perron vector: all of them equal lambda_max
    assert ratios.max() - ratios.min() <= 1e-9 * ratios.max()
    assert edge_products == [True]
