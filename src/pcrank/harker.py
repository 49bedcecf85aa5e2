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

from dataclasses import dataclass

import numpy as np

from .linalg import power_iteration
from .matrix import PCMatrix, Problem, prepare
from .priority import Normalization, PriorityVector, normalize

__all__ = ["HarkerSystem", "build_harker", "rank_harker"]


@dataclass(frozen=True)
class HarkerSystem:
    """Eigenproblem matrix B and the per-row missing counts s_i."""

    matrix: np.ndarray
    missing_counts: np.ndarray


def build_harker(m: PCMatrix | Problem) -> HarkerSystem:
    p = prepare(m)
    counts = p.missing.sum(axis=1)
    b = np.where(p.missing, 0.0, p.matrix.values)
    np.fill_diagonal(b, counts + 1)
    return HarkerSystem(b, counts)


def rank_harker(m: PCMatrix | Problem, normalization: Normalization = "sum") -> PriorityVector:
    """Principal-eigenvector priority vector of Harker's completion.

    Raises ConvergenceError if power iteration does not converge; callers
    presenting several methods side by side should report that per method
    rather than abort.
    """
    _, v = power_iteration(build_harker(m).matrix)
    return normalize(v, normalization)
