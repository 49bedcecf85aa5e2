"""Small dense linear-algebra kernel: Cholesky solves and power iteration.

Every linear system pcrank solves on a validated matrix is symmetric positive
definite, so the one direct solver is Cholesky, delegated to LAPACK via
scipy.  This module adds the contracts the solvers rely on (an explicit
singularity guard relative to the matrix max-norm, and a residual-checked
dominant eigenpair).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .priority import UnrepresentableWeightsError

__all__ = [
    "SingularMatrixError",
    "ConvergenceError",
    "solve",
    "power_iteration",
]

#: A pivot below PIVOT_RTOL * max|a_ij| counts as numerically singular.
#: Well above double-precision noise; tripping it on validated input means
#: something upstream is corrupt.
PIVOT_RTOL = 1e-12


class SingularMatrixError(ArithmeticError):
    """The matrix is numerically singular (pivot under the guard threshold)."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before the residual tolerance was met."""


def _check_square(a: np.ndarray, rhs: np.ndarray | None = None) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if rhs is not None and rhs.shape != (a.shape[0],):
        raise ValueError(f"dimension mismatch: matrix {a.shape}, rhs {rhs.shape}")


def solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a @ x = rhs for a symmetric positive definite ``a`` (Cholesky).

    Raises SingularMatrixError when ``a`` is not positive definite or any
    pivot falls below PIVOT_RTOL times the matrix max-norm, ValueError on
    dimension mismatch.
    """
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    _check_square(a, rhs)

    try:
        factor = scipy.linalg.cho_factor(a)
    except scipy.linalg.LinAlgError as e:  # also the zero matrix
        raise SingularMatrixError(f"not positive definite: {e}") from e
    if (np.diag(factor[0]) ** 2 < PIVOT_RTOL * np.abs(a).max()).any():
        raise SingularMatrixError("pivot below singularity threshold")
    return scipy.linalg.cho_solve(factor, rhs)


def power_iteration(
    a: np.ndarray, tol: float = 1e-12, max_iter: int = 100_000
) -> tuple[float, np.ndarray]:
    """Dominant eigenpair of a nonnegative irreducible matrix.

    Plain iteration from the uniform vector with l1 renormalization each
    step; for the primitive matrices produced upstream (positive diagonal,
    connected graph) convergence is geometric.  Returns (lam, v) with
    max|a @ v - lam * v| <= tol * lam * max|v|, v strictly positive and
    summing to 1.  Raises ConvergenceError after ``max_iter`` steps or when
    ``v`` has a zero entry, except that with a positive diagonal a zero entry
    can only be underflow, which raises UnrepresentableWeightsError.
    """
    a = np.asarray(a, dtype=float)
    _check_square(a)
    if (a < 0).any():
        raise ValueError("power iteration expects a nonnegative matrix")

    v = np.full(a.shape[0], 1.0 / a.shape[0])
    av = a @ v
    residual = np.inf
    for _ in range(max_iter):
        lam = float(av.sum())  # l1 norm: av is nonnegative
        if lam <= 0.0:
            raise SingularMatrixError("iteration collapsed to the zero vector")
        v = av / lam
        av = a @ v  # checks this step's residual and seeds the next step
        residual = float(np.abs(av - lam * v).max())
        if residual <= tol * lam * float(np.abs(v).max()):
            if (v > 0).all():
                return lam, v
            if (np.diag(a) > 0).all():  # then a @ v > 0 for every v > 0: a 0 is underflow
                raise UnrepresentableWeightsError("eigenvector is not representable in double precision")
            raise ConvergenceError("eigenvector is not strictly positive; matrix may be reducible")
    raise ConvergenceError(f"no convergence after {max_iter} iterations (residual {residual:.3e})")
