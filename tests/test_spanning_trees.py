"""An oracle that shares no code with the solvers: the spanning-tree mean.

Bozóki & Tsyganok (Int. J. General Systems 48(4), 2019) prove that the
geometric mean of the weight vectors of all spanning trees of the comparison
graph is the LLS optimum of an incomplete matrix, which the GM weights equal.
A spanning tree fixes the weights by walking its edges.  Here the matrices
come from the test's own generator and reach pcrank only as text through the
command line, so a defect in parsing, the Laplacian, the logarithms or the
solve cannot cancel out as it could between GM and LLS.

An edge {i, j} carries 0.5 * (ln c_ij - ln c_ji), the per-pair value the
methods' right-hand side sums over each row, so on decimals that are
reciprocal only within tolerance the oracle and the methods fit the same
log ratios, and the bound below applies as it does to exact fractions.
"""

import itertools
import json
import math

import numpy as np
import pytest

from helpers import run_cli

#: The bound GM == LLS is held to in the acceptance suite.
BOUND = 1e-9


def _tree_mean_weights(n: int, logs: dict[tuple[int, int], float]) -> np.ndarray:
    """Weights summing to 1 from the mean log-weights over all spanning trees.

    ``logs`` maps each edge (i, j), i < j, to the estimate of x_i - x_j.
    """
    edges = sorted(logs)
    total, trees = np.zeros(n), 0
    for tree in itertools.combinations(edges, n - 1):
        x = [None] * n
        x[0] = 0.0
        todo = list(tree)
        while todo:
            rest = []
            for i, j in todo:
                if x[i] is not None and x[j] is None:
                    x[j] = x[i] - logs[i, j]
                elif x[j] is not None and x[i] is None:
                    x[i] = x[j] + logs[i, j]
                elif x[i] is None:
                    rest.append((i, j))
                # both known: a cycle, so these n - 1 edges are no tree
            if len(rest) == len(todo):
                break
            todo = rest
        if all(v is not None for v in x):
            total += x
            trees += 1
    assert trees > 0
    w = np.exp(total / trees - (total / trees).max())
    return w / w.sum()


def _tree_edges(n, rng):
    order = rng.permutation(n).tolist()
    return {tuple(sorted((order[k], order[int(rng.integers(0, k))]))) for k in range(1, n)}


def _cycle_edges(n, rng):
    order = rng.permutation(n).tolist()
    return {tuple(sorted((order[k], order[(k + 1) % n]))) for k in range(n)}


def _random_edges(n, rng):
    keep = rng.uniform(0.3, 1.0)
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < keep}
    return edges | _tree_edges(n, rng)


def _complete_edges(n, rng):
    return {(i, j) for i in range(n) for j in range(i + 1, n)}


def _exact(c):
    return repr(c), repr(1.0 / c)


def _twelve_digits(c):
    return f"{c:.12g}", f"{1.0 / c:.12g}"


def _case(rng, n, edges_of, written):
    """Matrix text and the log value each edge carries."""
    v = rng.normal(0.0, 1.0, size=n)
    grid = [["1" if i == j else "?" for j in range(n)] for i in range(n)]
    logs = {}
    for i, j in edges_of(n, rng):
        c = math.exp(v[i] - v[j] + rng.normal(0.0, 0.5))
        grid[i][j], grid[j][i] = written(c)
        logs[i, j] = 0.5 * (math.log(float(grid[i][j])) - math.log(float(grid[j][i])))
    return "".join(",".join(row) + "\n" for row in grid), logs


CASES = {
    "trees": (_tree_edges, _exact, range(2, 7)),
    "cycles": (_cycle_edges, _exact, range(3, 7)),
    "random": (_random_edges, _exact, range(3, 7)),
    "complete": (_complete_edges, _exact, range(2, 7)),
    "decimals": (_random_edges, _twelve_digits, range(2, 7)),
}


@pytest.mark.parametrize("method", ["gm", "lls"])
@pytest.mark.parametrize("family", CASES)
def test_weights_are_the_spanning_tree_mean(family, method):
    edges_of, written, sizes = CASES[family]
    rng = np.random.default_rng(list(CASES).index(family))
    for n in sizes:
        for _ in range(3):
            text, logs = _case(rng, n, edges_of, written)
            result = run_cli(["rank", "--method", method, "--format", "structured"], text)
            assert result["exit"] == 0, (text, result["stderr"])
            weights = np.array(json.loads(result["stdout"])["weights"])
            expected = _tree_mean_weights(n, logs)
            assert np.abs(weights - expected).max() < BOUND, text
