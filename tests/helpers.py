"""Shared test utilities: the reference example, instance generators, oracles."""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from pcrank import PCMatrix, graph_of, is_connected, parse_matrix

# Reference 4x4 example: three comparisons present (c14 = c34 = 2, c23 = 3)
# plus reciprocals.  These entries admit a consistent completion generated by
# v = (2, 6, 2, 1): c14 = 2/1, c23 = 6/2, c34 = 2/1.  Every method must
# therefore recover w = v / 11 = (2/11, 6/11, 2/11, 1/11), with log-weights
# equal to ln v centered to zero mean.
EXAMPLE4_TEXT = "1,?,?,2\n?,1,3,?\n?,1/3,1,2\n1/2,?,1/2,1\n"
EXAMPLE4_WEIGHTS = np.array([2 / 11, 6 / 11, 2 / 11, 1 / 11])

#: A fraction numeral whose quotient is too large for a float.
HUGE_FRACTION = "1" + "0" * 400 + "/3"

#: A valid, connected chain whose weights span 1e600: beyond double precision.
CHAIN_TEXT = "1,1e200,?,?\n1e-200,1,1e200,?\n?,1e-200,1,1e200\n?,?,1e-200,1\n"


def example4() -> PCMatrix:
    return parse_matrix(EXAMPLE4_TEXT)


LOG9 = float(np.log(9.0))


def random_complete(n: int, rng: np.random.Generator) -> PCMatrix:
    """Random reciprocal complete matrix, entries log-uniform in [1/9, 9]."""
    values = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            c = float(np.exp(rng.uniform(-LOG9, LOG9)))
            values[i, j] = c
            values[j, i] = 1.0 / c
    return PCMatrix(values)


def delete_random_pairs(m: PCMatrix, rng: np.random.Generator, p: float = 0.4) -> PCMatrix:
    """Delete each off-diagonal pair (both sides) with probability p."""
    values = m.values.copy()
    for i in range(m.n):
        for j in range(i + 1, m.n):
            if rng.random() < p:
                values[i, j] = values[j, i] = np.nan
    return PCMatrix(values, m.labels)


def random_incomplete(n: int, rng: np.random.Generator, p: float = 0.4) -> PCMatrix:
    """Random connected reciprocal incomplete matrix, resampled until connected."""
    while True:
        m = delete_random_pairs(random_complete(n, rng), rng, p)
        if is_connected(graph_of(m)):
            return m


def consistent_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    return np.exp(rng.uniform(-LOG9 / 2, LOG9 / 2, size=n))


def consistent_complete(n: int, rng: np.random.Generator) -> tuple[PCMatrix, np.ndarray]:
    """Complete matrix with c[i,j] = v_i / v_j for a random positive v."""
    v = consistent_vector(n, rng)
    return PCMatrix(v[:, None] / v[None, :]), v


def consistent_incomplete(
    n: int, rng: np.random.Generator, p: float = 0.4
) -> tuple[PCMatrix, np.ndarray]:
    while True:
        m, v = consistent_complete(n, rng)
        m = delete_random_pairs(m, rng, p)
        if is_connected(graph_of(m)):
            return m, v


def relabel(m: PCMatrix, perm: list[int]) -> PCMatrix:
    """Matrix whose alternative i is m's alternative perm[i]."""
    idx = np.asarray(perm)
    return PCMatrix(m.values[np.ix_(idx, idx)], tuple(m.labels[i] for i in perm))


class UnionFind:
    """Independent connectivity oracle."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def component_count(self) -> int:
        return len({self.find(x) for x in range(len(self.parent))})


def connected_by_union_find(n: int, edges) -> bool:
    uf = UnionFind(n)
    for a, b in edges:
        uf.union(a, b)
    return uf.component_count() <= 1


def record_validate_calls(monkeypatch) -> list:
    """Count calls of pcrank's validate, however they are reached."""
    import pcrank.matrix

    calls: list = []
    real = pcrank.matrix.validate
    monkeypatch.setattr(pcrank.matrix, "validate", lambda m, tol: calls.append(m) or real(m, tol))
    return calls


def run_cli(argv: list[str], text: str) -> dict:
    """Run ``pcrank ARGV -`` in-process with ``text`` on standard input."""
    from pcrank.cli import main

    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "-"])
    finally:
        sys.stdin = stdin
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
