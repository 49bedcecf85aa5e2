"""Seeded pairwise comparison matrices and reference solutions for the benchmark.

Everything here uses numpy only.  It imports nothing from ``pcrank`` and
nothing from the test suite, so refactors of the program (of its graph code
in particular) cannot change what the benchmark feeds it or how the benchmark
judges the answers.

A matrix is an ``(n, n)`` float array with ``NaN`` for a missing comparison
and ones on the diagonal.
"""

from __future__ import annotations

import math

import numpy as np

LOG9 = math.log(9.0)
SAATY = (1, 2, 3, 4, 5, 6, 7, 8, 9)


def present_pairs(n: int, missing: float, rng: np.random.Generator) -> np.ndarray:
    """Symmetric boolean mask of present off-diagonal pairs, always connected.

    A random spanning tree is kept, and further pairs are added until about
    ``1 - missing`` of all pairs are present.
    """
    mask = np.zeros((n, n), dtype=bool)
    order = rng.permutation(n)
    for k in range(1, n):
        a, b = order[k], order[rng.integers(k)]
        mask[a, b] = mask[b, a] = True
    total = n * (n - 1) // 2
    target = max(n - 1, round((1.0 - missing) * total))
    iu, ju = np.triu_indices(n, 1)
    free = np.flatnonzero(~mask[iu, ju])
    extra = rng.choice(free, size=target - (n - 1), replace=False)
    mask[iu[extra], ju[extra]] = True
    mask[ju[extra], iu[extra]] = True
    if not is_connected(mask):
        raise RuntimeError("generated comparison graph is not connected")
    return mask


def is_connected(mask: np.ndarray) -> bool:
    """Whether the graph with adjacency ``mask`` reaches every vertex from vertex 0."""
    reached = np.zeros(mask.shape[0], dtype=bool)
    reached[0] = True
    while True:
        grown = reached | mask[reached].any(axis=0)
        if (grown == reached).all():
            return bool(reached.all())
        reached = grown


def _fill(mask: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Matrix with ``upper`` above the diagonal, reciprocals below, NaN off ``mask``."""
    n = mask.shape[0]
    values = np.full((n, n), np.nan)
    iu, ju = np.triu_indices(n, 1)
    keep = mask[iu, ju]
    values[iu[keep], ju[keep]] = upper[iu[keep], ju[keep]]
    values[ju[keep], iu[keep]] = 1.0 / upper[iu[keep], ju[keep]]
    np.fill_diagonal(values, 1.0)
    return values


def consistent(n: int, missing: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Matrix with c[i,j] = v_i / v_j on its present pairs, and v scaled to sum 1."""
    v = np.exp(rng.uniform(-LOG9 / 2, LOG9 / 2, size=n))
    v /= v.sum()
    mask = present_pairs(n, missing, rng)
    values = np.where(mask, v[:, None] / v[None, :], np.nan)
    np.fill_diagonal(values, 1.0)
    return values, v


def inconsistent(n: int, missing: float, rng: np.random.Generator) -> np.ndarray:
    """Reciprocal matrix with independent entries, log-uniform in [1/9, 9]."""
    upper = np.exp(rng.uniform(-LOG9, LOG9, size=(n, n)))
    return _fill(present_pairs(n, missing, rng), upper)


def saaty(n: int, missing: float, rng: np.random.Generator) -> np.ndarray:
    """Reciprocal matrix of Saaty-scale judgments k or 1/k, k in 1..9."""
    k = rng.choice(SAATY, size=(n, n)).astype(float)
    upper = np.where(rng.random((n, n)) < 0.5, k, 1.0 / k)
    return _fill(present_pairs(n, missing, rng), upper)


def disconnected(n: int, missing: float, rng: np.random.Generator) -> np.ndarray:
    """Reciprocal matrix whose comparison graph has exactly two components.

    Each component has at least two members, so no row is all missing and
    the only defect is the disconnected graph.  Needs n >= 4.
    """
    if n < 4:
        raise ValueError("a two-component graph without isolated vertices needs n >= 4")
    order = rng.permutation(n)
    cut = int(rng.integers(2, n - 1))
    mask = np.zeros((n, n), dtype=bool)
    for part in (order[:cut], order[cut:]):
        mask[np.ix_(part, part)] = present_pairs(part.size, missing, rng)
    if is_connected(mask):
        raise RuntimeError("generated comparison graph is connected")
    upper = np.exp(rng.uniform(-LOG9, LOG9, size=(n, n)))
    return _fill(mask, upper)


def break_reciprocity(values: np.ndarray, rng: np.random.Generator) -> tuple[int, int]:
    """Scale one present upper entry by 1.5 in place; return its (i, j), i < j."""
    iu, ju = np.triu_indices(values.shape[0], 1)
    present = np.flatnonzero(~np.isnan(values[iu, ju]))
    k = present[rng.integers(present.size)]
    i, j = int(iu[k]), int(ju[k])
    values[i, j] *= 1.5
    return i, j


def _token(x: float) -> str:
    if math.isnan(x):
        return "?"
    if x in SAATY:
        return str(int(x))
    for k in SAATY[1:]:
        if x == 1.0 / k:
            return f"1/{k}"
    return repr(x)


def matrix_text(values: np.ndarray, labels: list[str] | None = None) -> str:
    """The matrix in pcrank's text format.

    Saaty judgments are written as integers and fractions, other entries
    with ``repr``, which reads back to the identical float.
    """
    lines = ["# labels: " + ",".join(labels)] if labels else []
    lines += [",".join(_token(float(x)) for x in row) for row in values]
    return "\n".join(lines) + "\n"


def present_mask(values: np.ndarray) -> np.ndarray:
    mask = ~np.isnan(values)
    np.fill_diagonal(mask, False)
    return mask


def gm_log_weights(values: np.ndarray) -> np.ndarray:
    """Log-weights minimizing the log-squared error over present entries.

    Solves the normal equations ``(L + 1) x = b`` with numpy, where L is the
    Laplacian of the comparison graph and b the row sums of ln c.  This is
    the geometric-mean and LLS solution, with x summing to zero.
    """
    mask = present_mask(values)
    lap = np.diag(mask.sum(axis=1).astype(float)) - mask
    rhs = np.where(mask, np.log(np.where(mask, values, 1.0)), 0.0).sum(axis=1)
    return np.linalg.solve(lap + 1.0, rhs)


def sum_normalized(x: np.ndarray) -> np.ndarray:
    w = np.exp(x - x.max())
    return w / w.sum()


def harker_matrix(values: np.ndarray) -> np.ndarray:
    """Harker's B: present entries, zeros for missing, s_i + 1 on the diagonal."""
    mask = present_mask(values)
    b = np.where(mask, values, 0.0)
    np.fill_diagonal(b, values.shape[0] - mask.sum(axis=1))
    return b


def harker_weights(values: np.ndarray) -> np.ndarray:
    """Principal eigenvector of Harker's B from a dense eigensolver, summing to 1."""
    eigvals, eigvecs = np.linalg.eig(harker_matrix(values))
    v = np.abs(eigvecs[:, np.argmax(eigvals.real)].real)
    return v / v.sum()
