"""Geometric-mean ranking for incomplete PC matrices.

Each missing comparison c[i,j] is treated as the unknown ratio w_i / w_j.
Requiring every weight to equal the geometric mean of its (completed) row,

    (prod_j c*[i,j]) ** (1/n) = w_i,

and taking logarithms turns the unknown ratios into linear terms: with
x_i = ln w_i and S_i the number of missing entries in row i,

    (n - S_i) * x_i + sum_{j: c[i,j] missing} x_j = sum_{j: c[i,j] present} ln c[i,j].

The left-hand matrix equals L + J, the graph Laplacian of the comparison
graph plus the all-ones matrix, which is symmetric positive definite whenever
the graph is connected — so the system has exactly one solution.  On a
large sparse graph it is first sought by Jacobi-preconditioned conjugate
gradients, whose product L x + sum(x) is taken over the edge list; otherwise,
and whenever that iteration does not pass its backward-stable residual test
within its step budget (see :func:`pcrank.linalg._cg`), it is found by one
LU solve of L + J (``np.linalg.solve``).  No residual test follows that
solve: LU with partial pivoting is backward stable on a positive definite
system.  Exponentiating x recovers the weights; for a complete matrix this
reduces to plain row geometric means.

The right-hand side is taken as 1/2 sum_j (ln c[i,j] - ln c[j,i]), which
equals the row sum above when every pair is exactly reciprocal.  On pairs
reciprocal only within the tolerance it uses their mean, as the
least-squares fit over the present entries does, so GM and LLS agree there
too.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .linalg import _CG_WORK, _cg
from .matrix import PCMatrix, Problem, _adopt, _row_starts, prepare
from .priority import Normalization, PriorityVector, UnrepresentableWeightsError, normalize

__all__ = ["build_system", "rank_gm", "complete_matrix"]


def build_system(m: PCMatrix | Problem) -> np.ndarray:
    """The log-weight system matrix L + J of a valid, connected matrix.

    Written into one fresh array: 1 where c[i,j] is missing, 0 where it is
    present, and on the diagonal n - s_i, the count of row i's present
    entries in the edge list, its unit diagonal included.  The right-hand
    side is ``prepare(m).rhs``.  Raises DisconnectedGraphError /
    InvalidMatrixError via validation.
    """
    p = prepare(m)
    system = p.matrix.missing_mask.astype(float)
    system.flat[:: p.matrix.n + 1] = p.matrix._present[3]
    return system


def _edge_laplacian(p: Problem) -> Callable[[np.ndarray], np.ndarray] | None:
    """The product x -> L x of the comparison-graph Laplacian, over the edge
    list; or None where the system is too small or dense for conjugate
    gradients to pay, by :data:`pcrank.linalg._CG_WORK`.  (L x)_i is
    count_i x_i less the sum of x_j over row i's present entries, the unit
    diagonal's x_i included, so count_i - 1 is the degree."""
    if p.matrix.n**3 < _CG_WORK * p.rows.size:
        return None
    counts, cols, starts = p.matrix._present[3], p.cols, _row_starts(p)
    return lambda x: counts * x - np.add.reduceat(x.take(cols), starts)


def _solve_log_weights(p: Problem) -> np.ndarray:
    laplacian = _edge_laplacian(p)
    if laplacian is not None:  # L + J applied as L x plus sum(x)
        # The test's norm is ||L||_inf = 2 max degree, not ||L + J||_inf = n:
        # b sums to 0, so at the solution J x = sum(x) is about 0.
        counts = p.matrix._present[3]
        x = _cg(lambda x: laplacian(x) + x.sum(), counts, p.rhs, 2.0 * float(counts.max() - 1))
        if x is not None:
            return x
    try:
        return np.linalg.solve(build_system(p), p.rhs)
    except np.linalg.LinAlgError as e:  # impossible for connected graphs
        raise RuntimeError(
            f"singular geometric-mean system for a validated matrix (n={p.matrix.n}, "
            f"missing per row {p.matrix.missing_mask.sum(axis=1).tolist()}); "
            "this indicates corrupted input or an internal bug"
        ) from e


def _from_log_weights(p: Problem, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Unnormalized weights exp(x) and the residual max|L x - b| of log-weights
    x; L ignores a constant shift of x, so it holds for GM and LLS alike.
    (L x)_i sums x_i - x_j over the present entries of row i; the diagonal's
    terms are 0."""
    with np.errstate(over="ignore"):  # normalize rejects the infinities
        w = np.exp(x)
    lx = np.bincount(p.rows, x[p.rows] - x[p.cols], p.matrix.n)
    return w, {"linear_residual": float(np.abs(lx - p.rhs).max())}


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
    values = np.subtract.outer(x, x)
    with np.errstate(over="ignore"):
        np.exp(values, out=values)
    present = p.matrix._present[0]
    values.put(present, p.matrix.values.take(present))
    if not (0.0 < values.min() and values.max() < np.inf):  # False on a NaN
        raise UnrepresentableWeightsError("fitted ratios are not representable in double precision")
    return _adopt(values, p.matrix.labels)
