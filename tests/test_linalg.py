import math

import numpy as np
import pytest

from pcrank import ConvergenceError, SingularMatrixError, power_iteration, solve

from helpers import consistent_complete, random_complete

LN2, LN3 = math.log(2.0), math.log(3.0)

# Log-weight system of the reference 4x4 example.  Its solution is the
# mean-centered log of the consistent generator v = (2, 6, 2, 1); see
# helpers.EXAMPLE4_TEXT.
EX4_MATRIX = np.array(
    [
        [2.0, 1.0, 1.0, 0.0],
        [1.0, 2.0, 0.0, 1.0],
        [1.0, 0.0, 3.0, 0.0],
        [0.0, 1.0, 0.0, 3.0],
    ]
)
EX4_RHS = np.array([LN2, LN3, LN2 - LN3, -2 * LN2])
EX4_SOLUTION = np.array(
    [(LN2 - LN3) / 4, (LN2 + 3 * LN3) / 4, (LN2 - LN3) / 4, (-3 * LN2 - LN3) / 4]
)


class TestSolve:
    def test_identity(self):
        rhs = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(solve(np.eye(3), rhs), rhs)

    def test_example4_system(self):
        x = solve(EX4_MATRIX, EX4_RHS)
        assert np.abs(x - EX4_SOLUTION).max() < 1e-14

    def test_zero_matrix_is_singular(self):
        with pytest.raises(SingularMatrixError):
            solve(np.zeros((2, 2)), np.zeros(2))

    def test_rank_deficient_is_singular(self):
        with pytest.raises(SingularMatrixError):
            solve(np.ones((2, 2)), np.array([1.0, 1.0]))

    def test_indefinite_is_singular(self):
        with pytest.raises(SingularMatrixError):
            solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve(np.eye(3), np.ones(2))
        with pytest.raises(ValueError):
            solve(np.ones((2, 3)), np.ones(2))

    def test_residual_on_random_spd(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 21))
            r = rng.normal(size=(n, n))
            a = r @ r.T + n * np.eye(n)
            x_true = rng.normal(size=n)
            rhs = a @ x_true
            x = solve(a, rhs)
            assert np.abs(a @ x - rhs).max() <= 1e-10 * (1 + np.abs(rhs).max())
            assert np.abs(x - x_true).max() <= 1e-9 * (1 + np.abs(x_true).max())


class TestPowerIteration:
    def test_identity(self):
        lam, v = power_iteration(np.eye(3))
        assert lam == pytest.approx(1.0, rel=1e-12)
        assert np.array_equal(v, np.full(3, 1 / 3))

    def test_two_by_two_consistent(self):
        # eigenvalues of ((1, 2), (1/2, 1)) are 2 and 0 (trace 2, det 0);
        # the dominant eigenvector is (2, 1), l1-normalized (2/3, 1/3)
        lam, v = power_iteration(np.array([[1.0, 2.0], [0.5, 1.0]]))
        assert lam == pytest.approx(2.0, rel=1e-12)
        assert np.abs(v - np.array([2 / 3, 1 / 3])).max() < 1e-12

    def test_returned_pair_meets_residual_contract(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            a = random_complete(n, rng).values
            lam, v = power_iteration(a, tol=1e-12)
            assert np.abs(a @ v - lam * v).max() <= 1e-12 * lam * np.abs(v).max()
            assert (v > 0).all()
            assert v.sum() == pytest.approx(1.0, abs=1e-12)

    def test_consistent_matrix_has_eigenvalue_n(self):
        rng = np.random.default_rng(5)
        for n in (2, 4, 7, 10):
            m, v_true = consistent_complete(n, rng)
            lam, v = power_iteration(m.values)
            assert lam == pytest.approx(n, rel=1e-10)
            assert np.abs(v - v_true / v_true.sum()).max() < 1e-9

    def test_no_convergence_raises(self):
        with pytest.raises(ConvergenceError):
            power_iteration(np.array([[1.0, 2.0], [0.5, 1.0]]), tol=0.0, max_iter=1)

    def test_zero_entry_without_positive_diagonal_raises(self):
        # a zero component that is not underflow: the matrix is reducible
        with pytest.raises(ConvergenceError, match="reducible"):
            power_iteration(np.array([[0.0, 0.0], [1.0, 1.0]]))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            power_iteration(np.array([[1.0, -1.0], [1.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            power_iteration(np.ones((2, 3)))
