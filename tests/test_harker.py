import numpy as np
import pytest

from pcrank import (
    DisconnectedGraphError,
    UnrepresentableWeightsError,
    build_harker,
    compare_rankings,
    ordinal_ranking,
    parse_matrix,
    power_iteration,
    prepare,
    rank_gm,
    rank_harker,
)

from helpers import CHAIN_TEXT, consistent_complete, example4, random_complete, random_incomplete


class TestBuildHarker:
    def test_example4_matrix(self):
        system = build_harker(example4())
        # rows 1 and 2 are missing two comparisons each, rows 3 and 4 one each
        assert np.array_equal(np.diag(system), [3.0, 3.0, 2.0, 2.0])
        assert np.array_equal(prepare(example4()).missing.sum(1), [2, 2, 1, 1])
        assert system[0, 3] == 2.0
        assert system[0, 1] == 0.0
        assert system[2, 1] == pytest.approx(1 / 3)
        assert system[3, 0] == 0.5

    def test_complete_matrix_is_unchanged(self):
        m = random_complete(5, np.random.default_rng(0))
        assert np.array_equal(build_harker(m), m.values)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            build_harker(parse_matrix("1,2,?,?\n1/2,1,?,?\n?,?,1,3\n?,?,1/3,1\n"))


class TestRankHarker:
    def test_consistent_complete_recovery(self):
        m = parse_matrix("1,1/2,1/4\n2,1,1/2\n4,2,1\n")
        vector = rank_harker(m)
        assert np.abs(vector.weights - np.array([1 / 7, 2 / 7, 4 / 7])).max() < 1e-9

    def test_example4_order_matches_gm(self):
        harker = rank_harker(example4())
        gm = rank_gm(example4())
        _, ordinal_equal = compare_rankings(harker, gm)
        assert ordinal_equal
        assert ordinal_ranking(harker.weights) == ((1,), (0, 2), (3,))

    def test_single_comparison(self):
        vector = rank_harker(parse_matrix("1,4\n1/4,1\n"))
        assert np.abs(vector.weights - np.array([0.8, 0.2])).max() < 1e-9

    def test_strictly_positive_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            m = random_incomplete(int(rng.integers(3, 10)), rng)
            assert (rank_harker(m).weights > 0).all()

    def test_complete_equals_classical_evm(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = random_complete(int(rng.integers(2, 10)), rng)
            _, v = power_iteration(m.values)
            assert np.abs(rank_harker(m).weights - v).max() < 1e-9

    def test_eigenvalue_at_least_n_for_complete(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            n = int(rng.integers(3, 10))
            lam, _ = power_iteration(random_complete(n, rng).values)
            assert lam >= n - 1e-9

    def test_eigenvalue_equals_n_iff_consistent(self):
        rng = np.random.default_rng(4)
        m, _ = consistent_complete(6, rng)
        lam, _ = power_iteration(m.values)
        assert lam == pytest.approx(6.0, rel=1e-10)

        perturbed = m.values.copy()
        perturbed[0, 1] *= 4.0
        perturbed[1, 0] /= 4.0
        lam, _ = power_iteration(perturbed)
        assert lam > 6.0 + 1e-6


def test_underflowing_eigenvector_raises_typed_error():
    # valid and connected, but the eigenvector spans 1e600: its tail underflows to 0
    with pytest.raises(UnrepresentableWeightsError):
        rank_harker(parse_matrix(CHAIN_TEXT))
