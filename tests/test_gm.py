import numpy as np
import pytest

import pcrank.gm
from pcrank import (
    DisconnectedGraphError,
    InvalidMatrixError,
    UnrepresentableWeightsError,
    build_system,
    complete_matrix,
    ordinal_ranking,
    parse_matrix,
    prepare,
    rank_gm,
)
from pcrank.gm import _solve_gm
from pcrank.linalg import _CG_TOL
from pcrank.lls import _solve_lls

from helpers import (
    CHAIN_TEXT,
    EXAMPLE4_WEIGHTS,
    example4,
    random_complete,
    random_incomplete,
    relabel,
    sparse_matrix,
)
from wide_range_search import draws


def row_geometric_means(values: np.ndarray) -> np.ndarray:
    # independent oracle for the complete case
    return np.prod(values, axis=1) ** (1.0 / values.shape[0])


class TestBuildSystem:
    def test_example4_matrix(self):
        system = build_system(example4())
        expected = np.array(
            [
                [2.0, 1.0, 1.0, 0.0],
                [1.0, 2.0, 0.0, 1.0],
                [1.0, 0.0, 3.0, 0.0],
                [0.0, 1.0, 0.0, 3.0],
            ]
        )
        assert np.array_equal(system, expected)
        assert np.array_equal(example4().missing_mask.sum(1), [2, 2, 1, 1])

    def test_example4_rhs(self):
        rhs = prepare(example4()).rhs
        ln = np.log
        expected = np.array([ln(2), ln(3), ln(1 / 3) + ln(2), ln(1 / 2) + ln(1 / 2)])
        assert np.abs(rhs - expected).max() < 1e-15

    def test_complete_matrix_gives_scaled_identity(self):
        rng = np.random.default_rng(0)
        m = random_complete(5, rng)
        system = build_system(m)
        assert np.array_equal(system, 5 * np.eye(5))

    def test_matches_laplacian_plus_ones(self):
        # L + J written out element by element, as the paper defines it:
        # 1 where c[i,j] is missing, 0 where present, n - s_i on the diagonal.
        rng = np.random.default_rng(1)
        for _ in range(30):
            m = random_incomplete(int(rng.integers(3, 11)), rng)
            n = m.n
            expected = np.zeros((n, n))
            for i in range(n):
                s_i = sum(1 for j in range(n) if j != i and m.missing_mask[i, j])
                for j in range(n):
                    if i == j:
                        expected[i, j] = n - s_i
                    elif m.missing_mask[i, j]:
                        expected[i, j] = 1.0
            assert np.array_equal(build_system(m), expected)

    def test_row_sums_are_n(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(3, 11))
            system = build_system(random_incomplete(n, rng))
            assert np.array_equal(system @ np.ones(n), n * np.ones(n))
            assert np.array_equal(system, system.T)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            build_system(parse_matrix("1,2,?,?\n1/2,1,?,?\n?,?,1,3\n?,?,1/3,1\n"))

    def test_invalid_rejected(self):
        with pytest.raises(InvalidMatrixError):
            build_system(parse_matrix("1,2\n3,1\n"))


class TestRankGm:
    def test_example4_weights_and_order(self):
        vector = rank_gm(example4())
        assert np.abs(vector.weights - EXAMPLE4_WEIGHTS).max() < 1e-12
        assert ordinal_ranking(vector.weights) == ((1,), (0, 2), (3,))

    def test_consistent_complete_recovery(self):
        m = parse_matrix("1,1/2,1/4\n2,1,1/2\n4,2,1\n")  # generated by v = (1, 2, 4)
        vector = rank_gm(m)
        assert np.abs(vector.weights - np.array([1 / 7, 2 / 7, 4 / 7])).max() < 1e-15

    def test_normalizations_are_rescalings(self):
        m = random_incomplete(6, np.random.default_rng(3))
        by_sum = rank_gm(m, "sum").weights
        by_max = rank_gm(m, "max").weights
        raw = rank_gm(m, "none").weights
        assert by_max.max() == pytest.approx(1.0, abs=1e-12)
        ratios = by_max / by_sum
        assert np.abs(ratios - ratios[0]).max() < 1e-12
        ratios = raw / by_sum
        assert np.abs(ratios - ratios[0]).max() < 1e-12

    def test_complete_reduces_to_row_geometric_means(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            m = random_complete(int(rng.integers(2, 11)), rng)
            expected = row_geometric_means(m.values)
            expected /= expected.sum()
            assert np.abs(rank_gm(m).weights - expected).max() < 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            m = random_incomplete(n, rng)
            perm = list(rng.permutation(n))
            direct = rank_gm(relabel(m, perm)).weights
            reference = rank_gm(m).weights[perm]
            assert np.abs(direct - reference).max() < 1e-12


class TestCompleteMatrix:
    def test_example4_filled_ratios(self):
        completed = complete_matrix(example4())
        assert completed.is_complete()
        assert completed.values[0, 1] == pytest.approx(1 / 3, abs=1e-9)
        assert completed.values[1, 0] == pytest.approx(3.0, abs=1e-9)

    def test_present_entries_unchanged(self):
        m = example4()
        completed = complete_matrix(m)
        present = ~m.missing_mask
        assert np.array_equal(completed.values[present], m.values[present])

    def test_complete_input_unchanged(self):
        m = random_complete(5, np.random.default_rng(6))
        assert complete_matrix(m).equals(m)

    def test_reciprocity_to_machine_precision(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            completed = complete_matrix(random_incomplete(int(rng.integers(3, 10)), rng))
            product = completed.values * completed.values.T
            assert np.abs(product - 1.0).max() < 1e-12

    def test_reranking_is_a_fixed_point(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = random_incomplete(int(rng.integers(3, 10)), rng)
            before = rank_gm(m).weights
            after = rank_gm(complete_matrix(m)).weights
            assert np.abs(before - after).max() < 1e-9


class TestUnrepresentable:
    def test_rank_raises_typed_error(self):
        with pytest.raises(UnrepresentableWeightsError):
            rank_gm(parse_matrix(CHAIN_TEXT))

    def test_unnormalized_weights_still_fit(self):
        w = rank_gm(parse_matrix(CHAIN_TEXT), "none").weights
        assert w[0] > 1e299 and 0 < w[3] < 1e-299

    def test_complete_raises_typed_error(self):
        with pytest.raises(UnrepresentableWeightsError):
            complete_matrix(parse_matrix(CHAIN_TEXT))


def test_tolerance_is_set_by_prepare():
    m = parse_matrix("1,0.3333333333\n3,1\n")
    assert rank_gm(m).n == 2
    with pytest.raises(InvalidMatrixError):
        rank_gm(prepare(m, tol=0.0))


def test_singular_system_on_valid_input_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(pcrank.gm, "build_system", lambda p: np.zeros((p.matrix.n,) * 2))
    with pytest.raises(RuntimeError, match="singular geometric-mean system") as exc:
        rank_gm(example4())
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


def _ahp_sized():
    rng = np.random.default_rng(0)
    return [random_incomplete(int(rng.integers(3, 13)), rng, rng.uniform(0, 0.5)) for _ in range(400)]


def _wide_range():
    """The valid ones of the first 300 draws of ``wide_range_search.py``'s
    [300, 708] search."""
    valid = []
    for m in draws(7, 300.0, 708.0, 300):
        try:
            valid.append(prepare(m))
        except InvalidMatrixError:
            pass
    return valid


@pytest.mark.parametrize(
    "matrices",
    [_ahp_sized, _wide_range, lambda: [sparse_matrix(300, 0.2, np.random.default_rng(30))]],
    ids=["ahp_sized", "wide_range", "n300"],
)
def test_every_direct_solve_is_backward_stable(monkeypatch, matrices):
    """GM and LLS solve each system by one LU solve, whose solution passes
    the conjugate gradients' test: max|A x - b| <= 16 eps (||A||_inf max|x|
    + max|b|), also where exp(x) overflows."""
    problems = [prepare(m) for m in matrices()]
    systems, lu = [], np.linalg.solve

    def recording(a, b):
        x = lu(a, b)
        systems.append((a, b, x))
        return x

    monkeypatch.setattr(np.linalg, "solve", recording)
    for p in problems:
        _solve_gm(p), _solve_lls(p)
    assert len(systems) == 2 * len(problems)
    for a, b, x in systems:
        norm = np.abs(a).sum(axis=1).max()
        assert np.abs(a @ x - b).max() <= _CG_TOL * (norm * np.abs(x).max() + np.abs(b).max())
