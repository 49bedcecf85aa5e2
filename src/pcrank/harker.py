"""Harker's eigenvalue ranking for incomplete PC matrices.

The classical eigenvalue method takes the principal eigenvector of a complete
PC matrix.  Harker's completion substitutes w_i / w_j for each missing entry;
the resulting nonlinear eigenproblem is equivalent to the linear one

    B @ w = lam_max * w,

where B keeps the present off-diagonal entries, zeroes the missing ones, and
puts s_i + 1 on the diagonal (s_i = missing entries in row i).  For a
connected comparison graph B is nonnegative and primitive, so the principal
eigenvector is real, strictly positive, and reachable by power iteration.
For a complete matrix B equals the matrix itself and this is plain EVM.
"""

from __future__ import annotations

import numpy as np

from .linalg import power_iteration
from .matrix import PCMatrix, Problem, prepare
from .priority import Normalization, PriorityVector, normalize

__all__ = ["build_harker", "rank_harker"]


def build_harker(m: PCMatrix | Problem) -> np.ndarray:
    """The eigenproblem matrix B: present entries, 0 where missing, s_i + 1
    on the diagonal."""
    p = prepare(m)
    b = np.where(p.missing, 0.0, p.matrix.values)
    np.fill_diagonal(b, p.missing.sum(axis=1) + 1)
    return b


def rank_harker(m: PCMatrix | Problem, normalization: Normalization = "sum") -> PriorityVector:
    """Principal-eigenvector priority vector of Harker's completion.

    Raises ConvergenceError if power iteration does not converge, and
    UnrepresentableWeightsError when the eigenvector underflows; callers
    presenting several methods side by side should report that per method
    rather than abort.
    """
    _, v = power_iteration(build_harker(m))
    return normalize(v, normalization)
