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
    n = adj.shape[0]
    lap = np.subtract(0.0, adj, dtype=float)  # 0 - 0 keeps every zero +0.0
    lap.flat[:: n + 1] = np.count_nonzero(adj, axis=1)
    return lap


def connected_components(adj: np.ndarray) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest member.

    Frontier breadth-first search: each vertex enters a frontier once, so
    the rows scanned total n and the work is O(n^2).  A search ends when its
    frontier is empty or its component holds every vertex not yet assigned,
    so a connected graph takes no last, empty level.
    """
    unseen = np.ones(adj.shape[0], dtype=bool)
    left = unseen.size
    components = []
    while left:
        comp = np.zeros_like(unseen)
        comp[np.argmax(unseen)] = True
        frontier, size, found = comp, 1, 1
        while found and size < left:
            frontier = adj[frontier].any(axis=0) & ~comp
            found = np.count_nonzero(frontier)
            comp |= frontier
            size += found
        unseen &= ~comp
        left -= size
        components.append(np.flatnonzero(comp).tolist())
    return components


def is_connected(adj: np.ndarray) -> bool:
    """Every vertex is reachable from every other."""
    return len(connected_components(adj)) <= 1
