"""Geometric-mean ranking for incomplete PC matrices.

Each missing comparison c[i,j] is treated as the unknown ratio w_i / w_j.
Requiring every weight to equal the geometric mean of its (completed) row,

    (prod_j c*[i,j]) ** (1/n) = w_i,

and taking logarithms turns the unknown ratios into linear terms: with
x_i = ln w_i and S_i the number of missing entries in row i,

    (n - S_i) * x_i + sum_{j: c[i,j] missing} x_j = sum_{j: c[i,j] present} ln c[i,j].

The left-hand matrix equals L + J, the graph Laplacian of the comparison
graph plus the all-ones matrix, which is symmetric positive definite whenever
the graph is connected — so the system has exactly one solution and a
Cholesky solve applies.  Exponentiating x recovers the weights; for a
complete matrix this reduces to plain row geometric means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SingularMatrixError, solve
from .matrix import DEFAULT_TOL, PCMatrix, Problem, prepare
from .priority import Normalization, PriorityVector, normalize

__all__ = ["GmSystem", "build_system", "rank_gm", "complete_matrix"]


@dataclass(frozen=True)
class GmSystem:
    """Linear system ``matrix @ x = rhs`` whose solution is the log-weights."""

    matrix: np.ndarray
    rhs: np.ndarray
    missing_counts: np.ndarray

    @property
    def n(self) -> int:
        return self.rhs.size


def build_system(m: PCMatrix | Problem, tol: float = DEFAULT_TOL) -> GmSystem:
    """Assemble the log-weight system (L + J) x = b for a valid, connected matrix.

    Raises DisconnectedGraphError / InvalidMatrixError via validation.
    """
    p = prepare(m, tol)
    return GmSystem(p.laplacian + 1.0, p.log_row_sums, p.missing.sum(axis=1))


def _solve_log_weights(m: PCMatrix | Problem, tol: float) -> np.ndarray:
    system = build_system(m, tol)
    try:
        return solve(system.matrix, system.rhs, spd_hint=True)
    except SingularMatrixError as e:  # impossible for connected graphs
        raise RuntimeError(
            f"singular geometric-mean system for a validated matrix (n={system.n}, "
            f"missing per row {system.missing_counts.tolist()}); "
            "this indicates corrupted input or an internal bug"
        ) from e


def rank_gm(
    m: PCMatrix | Problem, normalization: Normalization = "sum", tol: float = DEFAULT_TOL
) -> PriorityVector:
    """Geometric-mean priority vector of an incomplete PC matrix.

    For a complete matrix this equals the normalized row geometric means.
    """
    return normalize(np.exp(_solve_log_weights(m, tol)), normalization)


def complete_matrix(m: PCMatrix | Problem, tol: float = DEFAULT_TOL) -> PCMatrix:
    """Fill every missing entry with the weight ratio w_i / w_j.

    Ratios come from unnormalized log-weight differences, exp(x_i - x_j), so
    reciprocity holds to machine precision.  Present entries are unchanged,
    and re-ranking the result reproduces the same priority vector.
    """
    p = prepare(m, tol)
    x = _solve_log_weights(p, tol)
    ratios = np.exp(x[:, None] - x[None, :])
    values = np.where(p.missing, ratios, p.matrix.values)
    return PCMatrix(values, p.matrix.labels)
