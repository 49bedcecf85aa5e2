import math

import numpy as np
import pytest

import pcrank.linalg
from pcrank import (
    ConvergenceError,
    SingularMatrixError,
    build_harker,
    parse_matrix,
    power_iteration,
    solve,
)

from helpers import consistent_complete, random_complete, random_incomplete, record_calls

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

    def test_tiny_pivot_is_singular(self):
        # Positive definite, so Cholesky succeeds, but the last pivot is 1e-13.
        with pytest.raises(SingularMatrixError, match="pivot below singularity threshold"):
            solve(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]), np.ones(2))

    def test_indefinite_is_singular(self):
        with pytest.raises(SingularMatrixError):
            solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve(np.eye(3), np.ones(2))
        with pytest.raises(ValueError):
            solve(np.ones((2, 3)), np.ones(2))

    @pytest.mark.parametrize("n", [31, 32, 33, 65, 600])
    def test_block_edges_match_lu(self, n):
        rng = np.random.default_rng(n)
        r = rng.normal(size=(n, n))
        a = r @ r.T + n * np.eye(n)
        rhs = rng.normal(size=n)
        x = solve(a, rhs)
        reference = np.linalg.solve(a, rhs)
        assert np.abs(x - reference).max() <= 1e-12 * np.abs(reference).max()
        assert np.abs(a @ x - rhs).max() <= 1e-12 * np.abs(a).max() * np.abs(x).max()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["matrix", "rhs"])
    def test_non_finite_input_raises(self, bad, where):
        a, rhs = EX4_MATRIX.copy(), EX4_RHS.copy()
        if where == "matrix":
            a[1, 2] = bad
        else:
            rhs[3] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve(a, rhs)

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

    def test_noda_steps_finish_a_near_unit_subdominant_ratio(self):
        # A weighted 3-cycle plus 1e-6 I: the eigenvalues are 1 + 1e-6 and
        # exp(+-2 pi i / 3) + 1e-6, so |lam_2 / lam_1| = 1 - 1.5e-6 and 100 000
        # power steps shrink the error only to about 0.86 of its start.
        d = np.array([1.0, 2.0, 5.0])
        a = d[:, None] * np.roll(np.eye(3), 1, axis=1) / d[None, :] + 1e-6 * np.eye(3)
        assert np.sort(np.abs(np.linalg.eigvals(a)))[-2] / (1 + 1e-6) > 1 - 2e-6
        lam, v = power_iteration(a, max_iter=50)
        assert lam == pytest.approx(1 + 1e-6, rel=1e-12)
        assert np.abs(v - d / d.sum()).max() < 1e-12
        assert np.abs(a @ v - lam * v).max() <= 1e-12 * lam * v.max()

    def test_large_matrix_converging_early_takes_no_noda_step(self, monkeypatch):
        # power steps until n // 3, so a matrix that converges before then gets
        # exactly the plain power iteration's vector
        a = random_complete(90, np.random.default_rng(8)).values
        calls = record_calls(monkeypatch, pcrank.linalg._shifted_solve)
        lam, v = power_iteration(a)
        assert calls == []
        assert np.abs(a @ v - lam * v).max() <= 1e-12 * lam * v.max()

    def test_no_convergence_raises(self):
        with pytest.raises(ConvergenceError):
            power_iteration(np.array([[1.0, 2.0], [0.5, 1.0]]), tol=0.0, max_iter=1)

    def test_zero_entry_without_positive_diagonal_raises(self):
        # a zero component that is not underflow: the matrix is reducible
        with pytest.raises(ConvergenceError, match="reducible"):
            power_iteration(np.array([[0.0, 0.0], [1.0, 1.0]]))

    def test_zero_matrix_collapses(self):
        with pytest.raises(SingularMatrixError, match="zero vector"):
            power_iteration(np.zeros((3, 3)))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            power_iteration(np.array([[1.0, -1.0], [1.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            power_iteration(np.ones((2, 3)))


SAATY = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]

#: Five alternatives on an inconsistent cycle plus two pendant pairs, with
#: ratios from 1e-12 to 1e12.  The Perron vector of its Harker matrix spans
#: about 1e12, so a dense eigensolver's vector, accurate relative to its
#: largest entry, gets the smallest entries right to only a few digits.
WIDE_TEXT = (
    "1,1e-2,?,1e-4,1e3\n1e2,1,1e-12,1e10,?\n?,1e12,1,?,?\n1e4,1e-10,?,1,1e-8\n1e-3,?,?,1e8,1\n"
)


def saaty_complete(n: int, rng: np.random.Generator) -> np.ndarray:
    i, j = np.triu_indices(n, 1)
    c = rng.choice(SAATY, size=i.size) ** rng.choice([-1.0, 1.0], size=i.size)
    values = np.ones((n, n))
    values[i, j], values[j, i] = c, 1.0 / c
    return values


def record_eig(monkeypatch) -> list:
    calls: list = []
    eig = np.linalg.eig

    def counting(a):
        calls.append(a)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting)
    return calls


def passes_the_iteration_test(a: np.ndarray, lam: float, v: np.ndarray) -> bool:
    error = np.abs(a @ v - lam * v)
    within = error.max() <= 1e-12 * lam * v.max()
    return bool(within and pcrank.linalg._settled(v, error, lam, 1e-12))


class TestDirectEigensolve:
    """Up to n = _EIG_MAX_N, power_iteration first tries one dense eigensolve."""

    @pytest.mark.parametrize("n", [2, 3, 8, pcrank.linalg._EIG_MAX_N])
    def test_one_eigensolve_and_no_noda_step(self, monkeypatch, n):
        a = saaty_complete(n, np.random.default_rng(n))
        eig_calls = record_eig(monkeypatch)
        noda_calls = record_calls(monkeypatch, pcrank.linalg._Noda)
        lam, v = power_iteration(a)
        assert len(eig_calls) == 1 and noda_calls == []
        assert passes_the_iteration_test(a, lam, v)
        assert (v > 0).all() and v.sum() == pytest.approx(1.0, abs=1e-12)

    def test_no_eigensolve_above_the_cutoff(self, monkeypatch):
        n = pcrank.linalg._EIG_MAX_N + 1
        a = saaty_complete(n, np.random.default_rng(n))
        eig_calls = record_eig(monkeypatch)
        lam, v = power_iteration(a)
        assert eig_calls == []
        assert np.abs(a @ v - lam * v).max() <= 1e-12 * lam * v.max()

    def test_unsettled_eigenvector_falls_back_to_the_iteration(self, monkeypatch):
        a = build_harker(parse_matrix(WIDE_TEXT))
        values, vectors = np.linalg.eig(a)
        direct = vectors[:, values.real.argmax()].real
        direct /= direct.sum()
        rayleigh = (a @ direct).sum()
        # positive and normal, and within the absolute test, but not entry by entry
        assert direct.min() >= np.finfo(float).tiny
        assert np.abs(a @ direct - rayleigh * direct).max() <= 1e-12 * rayleigh * direct.max()
        assert not passes_the_iteration_test(a, rayleigh, direct)

        monkeypatch.setattr(pcrank.linalg, "_EIG_MAX_N", 0)
        iterated = power_iteration(a)
        monkeypatch.undo()
        eig_calls = record_eig(monkeypatch)
        noda_calls = record_calls(monkeypatch, pcrank.linalg._Noda)
        lam, v = power_iteration(a)
        assert len(eig_calls) == 1 and len(noda_calls) == 1
        assert lam == iterated[0] and np.array_equal(v, iterated[1])
        assert passes_the_iteration_test(a, lam, v)

    def test_failed_eigensolve_falls_back_to_the_iteration(self, monkeypatch):
        a = saaty_complete(8, np.random.default_rng(8))
        monkeypatch.setattr(pcrank.linalg, "_EIG_MAX_N", 0)
        iterated = power_iteration(a)
        monkeypatch.undo()

        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", failing)
        lam, v = power_iteration(a)
        assert lam == iterated[0] and np.array_equal(v, iterated[1])

    def test_one_by_one_zero_matrix_collapses(self):
        # its eigenvector (1) is positive, but lam = 0 is no Perron root
        with pytest.raises(SingularMatrixError, match="zero vector"):
            power_iteration(np.zeros((1, 1)))


def iterated_harker(n: int, seed: int, log_range: float) -> np.ndarray:
    """B - mu I of ``random_incomplete(n, default_rng(seed), 0.4, log_range)``:
    the matrix that rank_harker iterates on."""
    a = build_harker(random_incomplete(n, np.random.default_rng(seed), 0.4, log_range))
    np.fill_diagonal(a, np.diag(a) - np.diag(a).min() + 1.0)
    return a


class TestNodaSafeguards:
    def test_trial_shift_saves_solves(self, monkeypatch):
        # Without the trial shift sqrt(floor * sigma) this matrix takes 183
        # solves, with it 10.
        a = iterated_harker(10, 20, 300.0)
        calls = record_calls(monkeypatch, pcrank.linalg._shifted_solve)
        power_iteration(a)
        assert len(calls) <= 40

    @pytest.mark.parametrize("n, seed, log_range", [(10, 25, 300.0), (6, 11, 700.0)])
    def test_power_step_after_a_failed_noda_step(self, n, seed, log_range):
        # Some Noda step on each of these cannot be taken in floating point.
        a = iterated_harker(n, seed, log_range)
        lam, v = power_iteration(a)
        assert passes_the_iteration_test(a, lam, v)

    def test_singular_shifted_system_gives_no_step(self):
        # (1 I - (1)) y = 1 is exactly singular
        assert pcrank.linalg._shifted_solve(np.array([[1.0]]), np.array([1.0]), 1.0) is None

    def test_no_step_when_the_shift_at_the_largest_double_fails(self):
        # a v / v overflows at v = 1/3 and again after the unfed entry is
        # raised, so the step shifts at the largest double; from that v the
        # shifted solve gives no positive y, so there is no step.
        a = np.array([[1.0, 1e308, 1e308], [1e308, 1.0, 1.0], [1.0, 1.0, 1.0]])
        v = np.full(3, 1 / 3)
        with np.errstate(all="ignore"):  # the step runs under power_iteration's
            assert pcrank.linalg._Noda(a).step(v, a @ v) is None

    def test_nan_bound_gives_no_step(self, monkeypatch):
        # The zero first row makes the lower bound 0, so the unfed second
        # entry is raised to 1 / 0 = inf, and 0 * inf makes a v / v NaN.
        calls = record_calls(monkeypatch, pcrank.linalg._shifted_solve)
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        v = np.array([1.0, 1e-320])
        with np.errstate(all="ignore"):
            assert pcrank.linalg._Noda(a).step(v, a @ v) is None
        assert calls == []


def test_settled_bound_fits_near_the_largest_double():
    # lam * n overflows here; the rounding term lam * n * (subnormal spacing)
    # must not, or it would settle any error.
    v = np.full(12, 1 / 12)
    assert not pcrank.linalg._settled(v, np.full(12, 1e300), 1e308, 1e-12)
