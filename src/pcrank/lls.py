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

from dataclasses import dataclass

import numpy as np

from .linalg import solve
from .matrix import PCMatrix, Problem, prepare
from .priority import Normalization, PriorityVector, normalize

__all__ = ["LlsSystem", "build_lls_system", "rank_lls"]


@dataclass(frozen=True)
class LlsSystem:
    """Laplacian system ``laplacian @ x = rhs`` with one entry pinned to 0."""

    laplacian: np.ndarray
    rhs: np.ndarray
    anchored_index: int


def build_lls_system(m: PCMatrix | Problem, anchor: int = 0) -> LlsSystem:
    p = prepare(m)
    if not 0 <= anchor < p.matrix.n:
        raise IndexError(f"anchor {anchor} out of range for n={p.matrix.n}")
    return LlsSystem(p.laplacian, p.log_row_sums, anchor)


def rank_lls(
    m: PCMatrix | Problem, normalization: Normalization = "sum", anchor: int = 0
) -> PriorityVector:
    """Log-least-squares priority vector, anchored at ``anchor`` and rescaled.

    Raises UnrepresentableWeightsError when the weights do not fit in a float.
    """
    system = build_lls_system(m, anchor)
    n = system.rhs.size
    keep = [i for i in range(n) if i != anchor]
    reduced = system.laplacian[np.ix_(keep, keep)]
    x = np.zeros(n)
    x[keep] = solve(reduced, system.rhs[keep])
    with np.errstate(over="ignore"):  # normalize rejects the infinities
        w = np.exp(x)
    return normalize(w, normalization)
