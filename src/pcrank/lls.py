"""Logarithmic least squares ranking for incomplete PC matrices.

Minimizing the sum of squared differences ln c[i,j] - (x_i - x_j) over the
present entries leads to the normal equations L @ x = b, where L is the
comparison-graph Laplacian and b_i = 1/2 sum_j (ln c[i,j] - ln c[j,i]) over
row i's present pairs.  The entries of b sum to 0, so the system is
consistent even where c[i,j] * c[j,i] is 1 only within the tolerance.
L is singular (constant vectors are its nullspace), so one log-weight is
anchored to zero; for a connected graph the remaining principal subsystem is
symmetric positive definite and the normalized result does not depend on
which alternative was anchored.  As for GM, a large sparse system is first
solved by conjugate gradients over the edge list, and otherwise by Cholesky
(see :func:`pcrank.linalg._cg`).

The geometric-mean solver minimizes the same functional, so both agree to
rounding error; this module exists as the independent cross-check.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .gm import _edge_laplacian, _from_log_weights
from .linalg import _cg, solve
from .matrix import PCMatrix, Problem, prepare
from .priority import Normalization, PriorityVector, normalize

__all__ = ["build_lls_system", "rank_lls"]


def build_lls_system(m: PCMatrix | Problem, anchor: int = 0) -> np.ndarray:
    """The Laplacian with row and column ``anchor`` removed: the symmetric
    positive definite matrix LLS solves once x[anchor] is pinned to 0.

    Written into one fresh array from the missing mask less row and column
    ``anchor`` (0 where missing, -1 where present), with the degrees, edges
    to the anchor included, on the diagonal.  The right-hand side is
    ``prepare(m).rhs`` without entry ``anchor``.  Raises IndexError for an
    anchor out of range.
    """
    p = prepare(m)
    n = p.matrix.n
    if not 0 <= anchor < n:
        raise IndexError(f"anchor {anchor} out of range for n={n}")
    keep = np.arange(n) != anchor
    system = p.matrix.missing_mask[keep][:, keep] - 1.0
    system.flat[::n] = p.matrix._present[3][keep] - 1.0  # less the unit diagonal
    return system


def _solve_lls(p: Problem, anchor: int = 0) -> tuple[np.ndarray, dict]:
    a = anchor
    laplacian = _edge_laplacian(p)
    if laplacian is not None and 0 <= a < p.matrix.n:  # build_lls_system raises otherwise
        x = _cg_anchored(p, laplacian, a)
        if x is not None:
            return _from_log_weights(p, x)
    x = solve(build_lls_system(p, a), np.concatenate((p.rhs[:a], p.rhs[a + 1 :])))
    return _from_log_weights(p, np.concatenate((x[:a], [0.0], x[a:])))


def _cg_anchored(
    p: Problem, laplacian: Callable[[np.ndarray], np.ndarray], a: int
) -> np.ndarray | None:
    """The anchored system solved by conjugate gradients on full-length
    vectors: entry ``a`` of every residual, direction and product is 0, so
    x[a] stays 0 and the iteration is the one on the system without row and
    column ``a``, whose max-norm is at most twice the largest degree."""
    counts = p.matrix._present[3]
    diag = counts - 1.0
    diag[a] = 1.0  # any positive value: entry a of every residual is 0

    def product(x: np.ndarray) -> np.ndarray:
        y = laplacian(x)
        y[a] = 0.0
        return y

    rhs = p.rhs.copy()
    rhs[a] = 0.0
    return _cg(product, diag, rhs, 2.0 * float(counts.max() - 1))


def rank_lls(
    m: PCMatrix | Problem, normalization: Normalization = "sum", anchor: int = 0
) -> PriorityVector:
    """Log-least-squares priority vector, anchored at ``anchor`` and rescaled.

    Raises UnrepresentableWeightsError when the weights do not fit in a float.
    """
    return normalize(_solve_lls(prepare(m), anchor)[0], normalization)
