"""Harker's eigenvalue ranking for incomplete PC matrices.

The classical eigenvalue method takes the principal eigenvector of a complete
PC matrix.  Harker's completion substitutes w_i / w_j for each missing entry;
the resulting nonlinear eigenproblem is equivalent to the linear one

    B @ w = lam_max * w,

where B keeps the present off-diagonal entries, zeroes the missing ones, and
puts s_i + 1 on the diagonal (s_i = missing entries in row i).  For a
connected comparison graph B is nonnegative and primitive, so the principal
eigenvector is real and strictly positive.  :func:`pcrank.linalg.power_iteration`
finds it: on small matrices from one dense eigensolve when its vector passes
the iteration's own final test, and otherwise with power steps and then
Noda's iteration.  For a complete matrix B equals the matrix itself
and this is plain EVM.

The iteration runs on B - mu*I with mu = min_i s_i.  The shift keeps every
off-diagonal entry and leaves a diagonal s_i - mu + 1 >= 1, so the shifted
matrix is still nonnegative, irreducible and primitive (and power_iteration's
underflow test, which needs a positive diagonal, still holds).  It has the
same Perron vector, with Perron root lam_max - mu.  The shift removes the
large common diagonal that packs the other eigenvalues next to lam_max on
sparse matrices: for a consistent B they are n - mu_k(L), mu_k(L) the
Laplacian eigenvalues.  At n = 600 with 90 % of pairs missing, |lam_2/lam_1|
falls from 0.86-0.94 to 0.34-0.55 and the power steps from 159-352 to 25-42,
within the n // 3 = 200 that power_iteration takes before it turns to Noda
steps, so such matrices never need a linear solve.  Nor do they need B:
where n**3 >= _EDGE_WORK * m, m present entries with the diagonal (from
about n = 520 at 90 % missing), the power steps take their product over the
row-major edge list, and B - mu*I is built only if they reach the n // 3
switch, where Noda's steps go on from the same vector.  Shifting by the smallest
diagonal entry, mu + 1, would zero a diagonal entry instead; on a regular
bipartite graph (an even cycle, say) the shifted matrix would then be
periodic and power steps would never converge.  A complete matrix has mu = 0
and is iterated unchanged.

The shift does not help when log ratios are wide (tens and more): one
strongly inconsistent cycle then dominates B, its k largest eigenvalues share
a modulus at angles 2 pi j / k, and power steps converge too slowly for any
step budget.
Noda's steps separate them and finish in a few solves.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .linalg import _iterate, power_iteration
from .matrix import PCMatrix, Problem, _row_starts, prepare
from .priority import Normalization, PriorityVector, normalize

__all__ = ["build_harker", "rank_harker"]

#: Harker's power steps run over the edge list (:func:`_edge_product`), and B
#: is built only if they reach the Noda steps, when n**3 >= _EDGE_WORK * m
#: for m present entries, the diagonal included.  The dense product is fast
#: while B fits the cache, and the edge product's cost grows with m.  Whole
#: solves, best of 11, summed over two inconsistent and one consistent
#: matrix, dense against edge path (one BLAS thread, 2-core x86-64 VM):
#: 400 x 400 at 90 % missing (n**3 / m = 3912) 4.6 against 5.3 ms, 500 at
#: 90 % (4912) 7.4 against 6.7, 1000 at 80 % (4980) 32.2 against 37.3, 800
#: at 85 % (5296) 22.6 against 18.8, 300 at 95 % (5641) 6.5 against 6.8,
#: 600 at 90 % (5911) 14.2 against 8.7 and 1000 at 90 % (9911) 36.9
#: against 22.6 ms.
_EDGE_WORK = 5000


def build_harker(m: PCMatrix | Problem) -> np.ndarray:
    """The eigenproblem matrix B: present entries, 0 where missing, s_i + 1
    on the diagonal."""
    p = prepare(m)
    n = p.matrix.n
    b = np.where(p.matrix.missing_mask, 0.0, p.matrix.values)
    np.fill_diagonal(b, n + 1 - p.matrix._present[3])
    return b


def _solve_harker(p: Problem) -> tuple[np.ndarray, dict]:
    """Perron vector v of B (summing to 1), its ``lambda_max`` = sum(B @ v) and
    ``eigen_residual`` max|B @ v - lambda_max * v|, from the iteration on
    B - mu*I, mu = min s_i; B @ v is the iteration's last product."""
    n = p.matrix.n
    shift = float(n - p.matrix._present[3].max())  # min s_i

    def shifted() -> np.ndarray:
        a = build_harker(p)
        a.flat[:: n + 1] -= shift
        return a

    product = _edge_product(p)
    if product is None:
        a = shifted()
        _, v = power_iteration(a)
        av = a @ v
    else:
        _, v, av = _iterate(product, shifted, n)
    lam = float(av.sum())
    return v, {"lambda_max": lam + shift, "eigen_residual": float(np.abs(av - lam * v).max())}


def _edge_product(p: Problem) -> Callable[[np.ndarray], np.ndarray] | None:
    """The product v -> (B - mu*I) v over the edge list; or None where B is
    too small or dense for it to pay, by :data:`_EDGE_WORK`.  Row i sums
    c_ij v_j over its present entries, c_ii read as 1, and adds
    (s_i - mu) v_i, s_i - mu = max(counts) - counts_i, so that its diagonal
    is s_i + 1 - mu."""
    if p.matrix.n**3 < _EDGE_WORK * p.rows.size:
        return None
    counts, cols, starts = p.matrix._present[3], p.cols, _row_starts(p)
    c = p.matrix.values.take(p.matrix._present[0])
    c[p.rows == cols] = 1.0  # validation allows a diagonal within tol of 1
    d = (counts.max() - counts).astype(float)
    return lambda v: d * v + np.add.reduceat(c * v.take(cols), starts)


def rank_harker(m: PCMatrix | Problem, normalization: Normalization = "sum") -> PriorityVector:
    """Principal-eigenvector priority vector of Harker's completion.

    Raises ConvergenceError if the iteration does not converge, and
    UnrepresentableWeightsError when an eigenvector entry is below the
    normal range or the eigenvalue overflows; callers presenting several
    methods side by side should report that per method rather than abort.
    """
    return normalize(_solve_harker(prepare(m))[0], normalization)
