"""Priority vectors: positive weights per alternative, up to a chosen scale."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

__all__ = ["Normalization", "PriorityVector", "UnrepresentableWeightsError", "normalize"]

Normalization = Literal["sum", "max", "none"]

_SCALE_TOL = 1e-12


class UnrepresentableWeightsError(ArithmeticError):
    """The weights (or fitted ratios) overflow or underflow double precision:
    the matrix's ratios span a wider range than a float can hold."""


@dataclass(frozen=True, eq=False)
class PriorityVector:
    """Positive finite weights; ``normalization`` records the applied scaling."""

    weights: np.ndarray
    normalization: Normalization = "sum"

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d array")
        if not np.isfinite(w).all() or (w <= 0).any():
            raise ValueError("weights must be positive and finite")
        if self.normalization == "sum" and abs(w.sum() - 1.0) > _SCALE_TOL:
            raise ValueError("sum-normalized weights must sum to 1")
        if self.normalization == "max" and abs(w.max() - 1.0) > _SCALE_TOL:
            raise ValueError("max-normalized weights must peak at 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.size


def normalize(weights: np.ndarray, normalization: Normalization = "sum") -> PriorityVector:
    """Scale positive weights: to unit sum, to unit maximum, or not at all.

    Raises UnrepresentableWeightsError when a scaled weight is not a
    positive finite float.
    """
    w = np.asarray(weights, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # inf / inf
        if normalization == "sum":
            w = w / w.sum()
        elif normalization == "max":
            w = w / w.max()
        elif normalization != "none":
            raise ValueError(f"unknown normalization {normalization!r}")
    if not (np.isfinite(w).all() and (w > 0).all()):
        raise UnrepresentableWeightsError("weights are not representable in double precision")
    return PriorityVector(w, normalization)
