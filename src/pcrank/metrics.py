"""Log-quadratic error of a ranking against a PC matrix, and ranking
comparison helpers (ordinal tie groups, per-method reports).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrix import PCMatrix, log_entries
from .priority import PriorityVector

__all__ = [
    "IncompleteMatrixError",
    "s_complete",
    "s_star",
    "ordinal_ranking",
    "format_ranking",
    "compare_rankings",
    "MethodReport",
    "method_report",
]

#: Weights closer than this (relatively) are reported as tied.  Exact ties
#: happen in practice, so rounding must not split them.
TIE_RTOL = 1e-9


class IncompleteMatrixError(ValueError):
    """An operation that needs a complete matrix was given missing entries."""


def _weights_of(w: PriorityVector | np.ndarray) -> np.ndarray:
    arr = w.weights if isinstance(w, PriorityVector) else np.asarray(w, dtype=float)
    if (arr <= 0).any() or not np.isfinite(arr).all():
        raise ValueError("weights must be positive and finite")
    return arr


def s_complete(m: PCMatrix, w: PriorityVector | np.ndarray) -> float:
    """Sum over all i, j of (ln c[i,j] - ln(w_i / w_j))^2.

    Zero exactly when the matrix is consistent with w; invariant under
    uniform rescaling of w.  Raises IncompleteMatrixError on missing entries.
    """
    if not m.is_complete():
        raise IncompleteMatrixError("matrix has missing entries; use s_star")
    return s_star(m, w)


def s_star(m: PCMatrix, w: PriorityVector | np.ndarray) -> float:
    """Like :func:`s_complete`, but missing entries are simply left out.

    Equals s_complete on complete matrices, and equals s_complete of the
    geometric-mean completion evaluated at the same weights.
    """
    x = np.log(_weights_of(w))
    terms = (log_entries(m) - (x[:, None] - x[None, :])) ** 2
    return float(np.where(m.missing_mask, 0.0, terms).sum())


def ordinal_ranking(w: PriorityVector | np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Indices grouped from most to least preferred; near-equal weights tie.

    A weight joins the current group while its relative gap to the group's
    largest weight stays within TIE_RTOL.
    """
    arr = _weights_of(w)
    order = sorted(range(arr.size), key=lambda i: (-arr[i], i))
    groups: list[tuple[int, ...]] = []
    current = [order[0]]
    head = arr[order[0]]
    for idx in order[1:]:
        if head - arr[idx] <= TIE_RTOL * head:
            current.append(idx)
        else:
            groups.append(tuple(sorted(current)))
            current = [idx]
            head = arr[idx]
    groups.append(tuple(sorted(current)))
    return tuple(groups)


def format_ranking(groups: tuple[tuple[int, ...], ...], labels: tuple[str, ...]) -> str:
    """Render tie groups as e.g. ``a2 > a1 = a3 > a4``."""
    return " > ".join(" = ".join(labels[i] for i in group) for group in groups)


def compare_rankings(
    a: PriorityVector | np.ndarray, b: PriorityVector | np.ndarray
) -> tuple[float, bool]:
    """Componentwise max difference and whether the tie-grouped orders agree.

    Meaningful only when both vectors share a normalization (use sum-to-one).
    """
    wa, wb = _weights_of(a), _weights_of(b)
    if wa.size != wb.size:
        raise ValueError(f"dimension mismatch: {wa.size} vs {wb.size}")
    max_diff = float(np.abs(wa - wb).max())
    return max_diff, ordinal_ranking(wa) == ordinal_ranking(wb)


@dataclass(frozen=True)
class MethodReport:
    """One ranking method's output on one matrix, ready for side-by-side display."""

    method: str
    vector: PriorityVector
    s_star: float
    ranking: tuple[tuple[int, ...], ...]
    diagnostics: dict = field(default_factory=dict)


def method_report(
    method: str,
    m: PCMatrix,
    vector: PriorityVector,
    diagnostics: dict | None = None,
) -> MethodReport:
    return MethodReport(
        method=method,
        vector=vector,
        s_star=s_star(m, vector),
        ranking=ordinal_ranking(vector.weights),
        diagnostics=diagnostics or {},
    )
