"""Shared test utilities: the reference example, instance generators, oracles."""

from __future__ import annotations

import io
import math
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from pcrank import PCMatrix, graph_of, is_connected, parse_matrix
from pcrank.matrix import default_labels

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

#: A valid circulant 6x6: c_ij = 1e308 where (j - i) mod 6 is 1 or 2, 1e-308
#: where it is 4 or 5, and 1 elsewhere.  Every weight is 1/6, but Harker's
#: eigenvalue, 2 + 2e308 + 2e-308, is beyond the largest double.
CIRCULANT_TEXT = "".join(
    ",".join(("1", "1e308", "1e308", "1", "1e-308", "1e-308")[(j - i) % 6] for j in range(6)) + "\n"
    for i in range(6)
)

#: A valid 6x6 with log ratios near +-700 whose weights fit in no method.
#: Harker's Noda steps reach vectors with subnormal entries whose columns of
#: B sum past the largest double.
SLACK_OVERFLOW_TEXT = """\
1,?,4.5279069997730377e-302,1,1,2.5543344923845443e-306
?,1,?,8.9089871001455654e+307,1.5520006910937627e-308,2.9180042054366013e-304
2.2085259261069743e+301,?,1,2.2791605565726694e+305,5.6420706050200278e+305,8.4147130859509201e+307
1,1.1224620585472178e-308,4.3875803181842037e-306,1,7.6369077675593915e-309,?
1,6.4432960999215564e+307,1.7723989471352072e-306,1.309430505692202e+308,1,5.4090400244830558e+305
3.9149140528829938e+305,3.4269998587969024e+303,1.1883946484991687e-308,?,1.848756887495153e-306,1
"""

#: Valid matrices whose Harker Perron vector has an entry below the smallest
#: double, by draw (0-based) of ``tests/wide_range_search.py``'s
#: ``default_rng(7)`` search on [300, 708].  mpmath's eigensolver at 1500
#: digits puts the smallest entry, of the vector summing to 1, at 1.4e-390,
#: 1.1e-324, 1.0e-427 and 1.67e-340, and draw 2933's lambda_max at 1.70e118.
#: Noda steps once ended on an entry of 5e-324 or 9.9e-324 here, with the
#: normal-range weights wrong too: lambda_max = 4.83e123 on draw 2933.
SUBNORMAL_PERRON_TEXTS = {
    339: """\
1,7.3069399992408248e-198,?,?,2.1643860007416396e-197
1.3685619426242693e+197,1,8.9820028246731089e+185,?,?
?,1.1133374365604187e-186,1,1.5769586556473306e+240,1.1189606740388813e-162
?,?,6.3413203410174811e-241,1,7.2333357510397358e+165
4.6202479578843332e+196,?,8.9368645672819448e+161,1.3824880171727932e-166,1
""",
    368: """\
1,5.1442079577765813e-167,6.7911555685590289e-209,1.7410304457653922e-270
1.9439338537787612e+166,1,8.3804449002136501e-224,3.5739894372024215e-131
1.4725034493830385e+208,1.1932540717193978e+223,1,6.138624659136385e+285
5.7437249442262321e+269,2.7979937198212895e+130,1.6290293926207982e-286,1
""",
    654: """\
1,3.4107161746525553e+146,?,7.7258450228552128e-261
2.9319355489961536e-147,1,4.7113356438272978e+219,1.9096245769366515e+215
?,2.1225403486380362e-220,1,1.6169047879144779e-258
1.2943567946829376e+260,5.2366313885850943e-216,6.184656063081016e+257,1
""",
    2933: """\
1.0,1.4603231264375915e+187,5.669503116450171e+202,?,3.516795808573555e+221
6.847799517079936e-188,1.0,6.008685428733644e+253,2.554327297348015e+157,1.2555361305204255e+287
1.7638230008172692e-203,1.664257534964273e-254,1.0,3.727545144922431e-195,3.351043630799161e+253
?,3.914925080424236e-158,2.682730754749342e+194,1.0,1.3991506709776556e+207
2.8434974744968466e-222,7.964724994297817e-288,2.9841449714622748e-254,7.14719308465364e-208,1.0
""",
}


def serialize_by_fstrings(m: PCMatrix) -> str:
    """Number-by-number reference for :func:`pcrank.serialize_matrix`."""
    lines = [] if m.labels == default_labels(m.n) else ["# labels: " + ",".join(m.labels)]
    for row in m.values:
        lines.append(",".join("?" if math.isnan(x) else f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def example4() -> PCMatrix:
    return parse_matrix(EXAMPLE4_TEXT)


LOG9 = float(np.log(9.0))


def random_complete(n: int, rng: np.random.Generator, log_range: float = LOG9) -> PCMatrix:
    """Random reciprocal complete matrix, log entries uniform in [-log_range,
    log_range]: [1/9, 9] by default."""
    values = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            c = float(np.exp(rng.uniform(-log_range, log_range)))
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


def random_incomplete(
    n: int, rng: np.random.Generator, p: float = 0.4, log_range: float = LOG9
) -> PCMatrix:
    """Random connected reciprocal incomplete matrix, resampled until connected."""
    while True:
        m = delete_random_pairs(random_complete(n, rng, log_range), rng, p)
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


def sparse_matrix(
    n: int, missing: float, rng: np.random.Generator, consistent: bool = False
) -> PCMatrix:
    """Reciprocal matrix, log ratios uniform in [-ln 9, ln 9] (or, consistent,
    differences of log-weights uniform in [-ln 9 / 2, ln 9 / 2]), on a random
    spanning tree plus each other pair with probability 1 - missing."""
    tree = np.zeros((n, n), dtype=bool)
    order = rng.permutation(n)
    tree[order[1:], order[rng.integers(0, np.arange(1, n))]] = True  # to an earlier vertex
    upper = np.triu((rng.random((n, n)) >= missing) | tree | tree.T, 1)
    if consistent:
        u = rng.uniform(-LOG9 / 2, LOG9 / 2, n)
        ratios = np.subtract.outer(u, u)
    else:
        ratios = rng.uniform(-LOG9, LOG9, (n, n))
    x = np.where(upper, ratios, np.nan)
    x = np.where(upper.T, -x.T, x)
    np.fill_diagonal(x, 0.0)
    return PCMatrix(np.exp(x))


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


def record_calls(monkeypatch, func) -> list:
    """Count calls of a pcrank function through every module-level name bound
    to it, so ``from .matrix import f`` references are counted too."""
    calls: list = []

    def counting(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pcrank":
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, counting)
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
