"""Comparison graph of a PC matrix: vertices are alternatives, edges are
present comparisons.  The graph is its boolean (n, n) adjacency array;
degrees are ``adj.sum(1)`` and the Laplacian follows the standard
definition.  Connectivity decides whether a ranking exists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .matrix import PCMatrix

__all__ = ["graph_of", "laplacian", "is_connected", "connected_components"]


def graph_of(m: PCMatrix) -> np.ndarray:
    """Symmetric bool adjacency: edge {i, j} whenever c[i,j] or c[j,i] is present."""
    present = ~m.missing_mask
    adj = present | present.T
    np.fill_diagonal(adj, False)
    return adj


def laplacian(adj: np.ndarray) -> np.ndarray:
    """Degree matrix minus adjacency matrix; symmetric, rows sum to zero."""
    a = adj.astype(float)
    return np.diag(a.sum(axis=1)) - a


def connected_components(adj: np.ndarray) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest member.

    Frontier breadth-first search: each vertex enters a frontier once, so
    the rows scanned total n and the work is O(n^2).
    """
    unseen = np.ones(adj.shape[0], dtype=bool)
    components = []
    while unseen.any():
        comp = np.zeros_like(unseen)
        comp[np.argmax(unseen)] = True
        frontier = comp.copy()
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~comp
            comp |= frontier
        unseen &= ~comp
        components.append(np.flatnonzero(comp).tolist())
    return components


def is_connected(adj: np.ndarray) -> bool:
    """Every vertex is reachable from every other."""
    return len(connected_components(adj)) <= 1
