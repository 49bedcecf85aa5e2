"""Logarithmic least squares ranking for incomplete PC matrices.

Minimizing the sum of squared differences ln c[i,j] - (x_i - x_j) over the
present entries leads to the normal equations L @ x = b, where L is the
comparison-graph Laplacian and b_i sums ln over row i's present entries.
L is singular (constant vectors are its nullspace), so one log-weight is
anchored to zero; for a connected graph the remaining principal subsystem is
symmetric positive definite and the normalized result does not depend on
which alternative was anchored.

The geometric-mean solver minimizes the same functional, so both agree to
rounding error; this module exists as the independent cross-check.
"""

from __future__ import annotations

import numpy as np

from .linalg import solve
from .matrix import PCMatrix, Problem, prepare
from .priority import Normalization, PriorityVector, normalize

__all__ = ["build_lls_system", "rank_lls"]


def build_lls_system(m: PCMatrix | Problem, anchor: int = 0) -> np.ndarray:
    """The Laplacian with row and column ``anchor`` removed: the symmetric
    positive definite matrix LLS solves once x[anchor] is pinned to 0.

    The right-hand side is ``prepare(m).log_row_sums`` without entry
    ``anchor``.  Raises IndexError for an anchor out of range.
    """
    p = prepare(m)
    if not 0 <= anchor < p.matrix.n:
        raise IndexError(f"anchor {anchor} out of range for n={p.matrix.n}")
    return np.delete(np.delete(p.laplacian, anchor, axis=0), anchor, axis=1)


def rank_lls(
    m: PCMatrix | Problem, normalization: Normalization = "sum", anchor: int = 0
) -> PriorityVector:
    """Log-least-squares priority vector, anchored at ``anchor`` and rescaled.

    Raises UnrepresentableWeightsError when the weights do not fit in a float.
    """
    p = prepare(m)
    x = solve(build_lls_system(p, anchor), np.delete(p.log_row_sums, anchor))
    with np.errstate(over="ignore"):  # normalize rejects the infinities
        w = np.exp(np.insert(x, anchor, 0.0))
    return normalize(w, normalization)
