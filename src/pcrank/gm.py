"""Geometric-mean ranking for incomplete PC matrices.

Each missing comparison c[i,j] is treated as the unknown ratio w_i / w_j.
Requiring every weight to equal the geometric mean of its (completed) row,

    (prod_j c*[i,j]) ** (1/n) = w_i,

and taking logarithms turns the unknown ratios into linear terms: with
x_i = ln w_i and S_i the number of missing entries in row i,

    (n - S_i) * x_i + sum_{j: c[i,j] missing} x_j = sum_{j: c[i,j] present} ln c[i,j].

The left-hand matrix equals L + J, the graph Laplacian of the comparison
graph plus the all-ones matrix, which is symmetric positive definite whenever
the graph is connected — so the system has exactly one solution, found
from one Cholesky factor and two triangular solves.  Exponentiating x
recovers the weights; for a complete matrix this reduces to plain row
geometric means.
"""

from __future__ import annotations

import numpy as np

from .linalg import SingularMatrixError, solve
from .matrix import PCMatrix, Problem, prepare
from .priority import Normalization, PriorityVector, UnrepresentableWeightsError, normalize

__all__ = ["build_system", "rank_gm", "complete_matrix"]


def build_system(m: PCMatrix | Problem) -> np.ndarray:
    """The log-weight system matrix L + J of a valid, connected matrix.

    The right-hand side is ``prepare(m).log_row_sums``.  Raises
    DisconnectedGraphError / InvalidMatrixError via validation.
    """
    return prepare(m).laplacian + 1.0


def _solve_log_weights(p: Problem) -> np.ndarray:
    try:
        return solve(build_system(p), p.log_row_sums)
    except SingularMatrixError as e:  # impossible for connected graphs
        raise RuntimeError(
            f"singular geometric-mean system for a validated matrix (n={p.matrix.n}, "
            f"missing per row {p.matrix.missing_mask.sum(axis=1).tolist()}); "
            "this indicates corrupted input or an internal bug"
        ) from e


def _from_log_weights(p: Problem, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Unnormalized weights exp(x) and the residual max|L x - b| of log-weights
    x; L ignores a constant shift of x, so it holds for GM and LLS alike."""
    with np.errstate(over="ignore"):  # normalize rejects the infinities
        w = np.exp(x)
    return w, {"linear_residual": float(np.abs(p.laplacian @ x - p.log_row_sums).max())}


def _solve_gm(p: Problem) -> tuple[np.ndarray, dict]:
    return _from_log_weights(p, _solve_log_weights(p))


def rank_gm(m: PCMatrix | Problem, normalization: Normalization = "sum") -> PriorityVector:
    """Geometric-mean priority vector of an incomplete PC matrix.

    For a complete matrix this equals the normalized row geometric means.
    Raises UnrepresentableWeightsError when the weights do not fit in a float.
    """
    return normalize(_solve_gm(prepare(m))[0], normalization)


def complete_matrix(m: PCMatrix | Problem) -> PCMatrix:
    """Fill every missing entry with the weight ratio w_i / w_j.

    Ratios come from unnormalized log-weight differences, exp(x_i - x_j), so
    reciprocity holds to machine precision.  Present entries are unchanged,
    and re-ranking the result reproduces the same priority vector.  Raises
    UnrepresentableWeightsError when a ratio is not a positive finite float.
    """
    p = prepare(m)
    x = _solve_log_weights(p)
    with np.errstate(over="ignore"):
        ratios = np.exp(x[:, None] - x[None, :])
    values = np.where(p.matrix.missing_mask, ratios, p.matrix.values)
    if not (np.isfinite(values).all() and (values > 0).all()):
        raise UnrepresentableWeightsError("fitted ratios are not representable in double precision")
    return PCMatrix(values, p.matrix.labels)
