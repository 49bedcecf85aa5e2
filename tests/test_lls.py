import numpy as np
import pytest

from pcrank import (
    DisconnectedGraphError,
    UnrepresentableWeightsError,
    build_lls_system,
    graph_of,
    laplacian,
    parse_matrix,
    prepare,
    rank_gm,
    rank_lls,
    s_star,
)

import pcrank.lls
from pcrank.gm import _from_log_weights
from pcrank.linalg import solve
from pcrank.lls import _solve_lls

from helpers import CHAIN_TEXT, EXAMPLE4_WEIGHTS, example4, random_incomplete, record_calls


class TestRankLls:
    def test_example4_matches_gm(self):
        lls = rank_lls(example4()).weights
        gm = rank_gm(example4()).weights
        assert np.abs(lls - EXAMPLE4_WEIGHTS).max() < 1e-12
        assert np.abs(lls - gm).max() < 1e-9

    def test_consistent_complete_recovery(self):
        m = parse_matrix("1,1/2,1/4\n2,1,1/2\n4,2,1\n")
        assert np.abs(rank_lls(m).weights - np.array([1 / 7, 2 / 7, 4 / 7])).max() < 1e-12

    def test_single_comparison(self):
        vector = rank_lls(parse_matrix("1,4\n1/4,1\n"))
        assert np.abs(vector.weights - np.array([0.8, 0.2])).max() < 1e-15

    def test_agrees_with_gm_on_random_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            m = random_incomplete(int(rng.integers(3, 11)), rng)
            diff = np.abs(rank_lls(m).weights - rank_gm(m).weights).max()
            assert diff < 1e-9

    def test_anchor_independence(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = random_incomplete(int(rng.integers(3, 9)), rng)
            reference = rank_lls(m, anchor=0).weights
            for k in range(1, m.n):
                assert np.abs(rank_lls(m, anchor=k).weights - reference).max() <= 1e-9

    def test_anchor_out_of_range(self):
        with pytest.raises(IndexError):
            rank_lls(example4(), anchor=4)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            rank_lls(parse_matrix("1,2,?,?\n1/2,1,?,?\n?,?,1,3\n?,?,1/3,1\n"))

    def test_residual_is_minimal_among_random_vectors(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            m = random_incomplete(n, rng)
            best = s_star(m, rank_lls(m))
            for _ in range(500):
                candidate = np.exp(rng.uniform(-np.log(9), np.log(9), size=n))
                assert best <= s_star(m, candidate)


class TestLlsSystem:
    def test_laplacian_structure(self):
        lap = laplacian(graph_of(example4()))
        assert np.array_equal(lap, lap.T)
        assert np.array_equal(lap @ np.ones(4), np.zeros(4))
        assert np.array_equal(build_lls_system(example4()), lap[1:, 1:])
        assert np.array_equal(build_lls_system(example4(), 2), lap[np.ix_([0, 1, 3], [0, 1, 3])])

    @pytest.mark.parametrize("n", [2, 3, 8, 45])
    def test_every_anchor_removes_its_row_and_column(self, n):
        p = prepare(random_incomplete(n, np.random.default_rng(n)))
        lap = laplacian(graph_of(p.matrix))
        for k in range(n):
            system = build_lls_system(p, k)
            assert np.array_equal(system, np.delete(np.delete(lap, k, 0), k, 1))
            shared = (build_lls_system(p, k), p.matrix.values, p.rhs, p.rows, p.logs)
            assert system.flags.writeable and not any(np.shares_memory(system, a) for a in shared)
        for k in (-1, n):
            with pytest.raises(IndexError):
                build_lls_system(p, k)

    def test_rhs_from_present_entries_only(self):
        rhs = prepare(example4()).rhs
        ln = np.log
        expected = np.array([ln(2), ln(3), ln(1 / 3) + ln(2), ln(1 / 2) + ln(1 / 2)])
        assert np.abs(rhs - expected).max() < 1e-15


@pytest.mark.parametrize("anchor", [0, 4, 8])
def test_anchor_slicing_is_bit_identical(monkeypatch, anchor):
    # The right-hand side without entry ``anchor`` and the solution with a 0
    # put back there, as np.delete and np.insert build them.
    p = prepare(random_incomplete(9, np.random.default_rng(15)))
    x = np.insert(solve(build_lls_system(p, anchor), np.delete(p.rhs, anchor)), anchor, 0.0)
    want = _from_log_weights(p, x)
    calls = record_calls(monkeypatch, pcrank.lls._from_log_weights)
    w, diagnostics = _solve_lls(p, anchor)
    assert calls[0][1][anchor] == 0.0
    assert calls[0][1].tobytes() == x.tobytes()
    assert w.tobytes() == want[0].tobytes() and diagnostics == want[1]


@pytest.mark.parametrize("anchor", [0, 3])
def test_unrepresentable_weights_raise_typed_error(anchor):
    # anchored at a1 the other weights underflow; anchored at a4 they overflow
    with pytest.raises(UnrepresentableWeightsError):
        rank_lls(parse_matrix(CHAIN_TEXT), anchor=anchor)
