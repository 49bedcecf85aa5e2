import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcrank import (
    PCMatrix,
    connected_components,
    graph_of,
    is_connected,
    laplacian,
    parse_matrix,
)

from helpers import UnionFind, connected_by_union_find, example4, random_complete


def complete3():
    return parse_matrix("1,2,4\n1/2,1,2\n1/4,1/2,1\n")


def diagonal_only(n):
    rows = [",".join("1" if i == j else "?" for j in range(n)) for i in range(n)]
    return parse_matrix("\n".join(rows))


def adjacency(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return adj


def union_find_components(n, edges):
    """Components from the union-find oracle, in connected_components' order."""
    uf = UnionFind(n)
    for a, b in edges:
        uf.union(a, b)
    groups = {}
    for x in range(n):
        groups.setdefault(uf.find(x), []).append(x)
    return sorted(groups.values())


def edges_of(adj):
    """Edges (i, j) with i < j, in row-major order."""
    return [tuple(e) for e in np.argwhere(np.triu(adj)).tolist()]


class TestGraphOf:
    def test_example4_edges(self):
        adj = graph_of(example4())
        assert adj.dtype == bool
        assert np.array_equal(adj, adj.T)
        assert not adj.diagonal().any()
        assert edges_of(adj) == [(0, 3), (1, 2), (2, 3)]

    def test_complete_matrix_gives_complete_graph(self):
        assert edges_of(graph_of(complete3())) == [(0, 1), (0, 2), (1, 2)]

    def test_diagonal_only_gives_empty_graph(self):
        assert not graph_of(diagonal_only(3)).any()

    def test_one_sided_entry_still_makes_an_edge(self):
        adj = graph_of(parse_matrix("1,2\n?,1\n"))
        assert edges_of(adj) == [(0, 1)]
        assert adj[1, 0]


class TestDegree:
    def test_example4_degrees(self):
        degrees = graph_of(example4()).sum(axis=1)
        assert degrees[3] == 2  # compared with a1 and a3
        assert degrees.tolist() == [1, 1, 2, 2]

    def test_isolated_vertex(self):
        assert graph_of(diagonal_only(3)).sum(axis=1)[1] == 0

    def test_complete_graph(self):
        assert graph_of(complete3()).sum(axis=1).tolist() == [2, 2, 2]


class TestMatrices:
    # Hand count for the example graph (edges 1-4, 2-3, 3-4, 1-based):
    # degrees (1, 1, 2, 2).
    def test_example4_laplacian(self):
        lap = laplacian(graph_of(example4()))
        expected = np.array(
            [
                [1.0, 0.0, 0.0, -1.0],
                [0.0, 1.0, -1.0, 0.0],
                [0.0, -1.0, 2.0, -1.0],
                [-1.0, 0.0, -1.0, 2.0],
            ]
        )
        assert np.array_equal(lap, expected)

    def test_example4_degree_and_adjacency(self):
        lap = laplacian(graph_of(example4()))
        assert np.array_equal(np.diag(lap), [1.0, 1.0, 2.0, 2.0])
        adj = -(lap - np.diag(np.diag(lap)))
        assert adj[0, 3] == adj[3, 0] == 1.0
        assert adj[0, 1] == 0.0
        assert np.array_equal(adj, graph_of(example4()).astype(float))

    def test_empty_graph_zero_laplacian(self):
        assert np.array_equal(laplacian(graph_of(diagonal_only(4))), np.zeros((4, 4)))

    def test_k3_laplacian(self):
        lap = laplacian(graph_of(complete3()))
        assert np.array_equal(lap, 3 * np.eye(3) - np.ones((3, 3)))

    def test_laplacian_invariants_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
            lap = laplacian(adjacency(n, edges))
            assert np.array_equal(lap, lap.T)
            assert np.array_equal(lap.sum(axis=0), np.zeros(n))
            assert np.array_equal(lap @ np.ones(n), np.zeros(n))


class TestConnectivity:
    def test_example4_connected(self):
        assert is_connected(graph_of(example4()))

    def test_two_disjoint_edges(self):
        adj = adjacency(4, [(0, 1), (2, 3)])
        assert not is_connected(adj)
        assert connected_components(adj) == [[0, 1], [2, 3]]

    def test_single_vertex(self):
        assert is_connected(np.zeros((1, 1), dtype=bool))

    def test_components_of_connected_graph(self):
        assert connected_components(graph_of(example4())) == [[0, 1, 2, 3]]

    @settings(max_examples=200)
    @given(st.data())
    def test_against_union_find(self, data):
        n = data.draw(st.integers(1, 50))
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.sets(st.sampled_from(all_pairs)) if all_pairs else st.just(set()))
        adj = adjacency(n, edges)
        assert is_connected(adj) == connected_by_union_find(n, edges)
        assert connected_components(adj) == union_find_components(n, edges)

    @pytest.mark.parametrize(
        "n, edges",
        [
            (200, [(k, k + 1) for k in range(199)]),  # a path: one vertex per level
            (12, [(0, 5), (5, 9), *((k, k + 1) for k in (1, 2, 3, 6, 7, 10)), (4, 6), (8, 10)]),
            (9, [(i, j) for i in range(8) for j in range(i + 1, 8) if (i + j) % 3]),
        ],
        ids=["path-200", "second-is-the-rest", "last-isolated"],
    )
    def test_searches_that_end_early(self, n, edges):
        # Each search stops once its component holds every vertex left.
        assert connected_components(adjacency(n, edges)) == union_find_components(n, edges)

    def test_union_find_matches_on_pc_matrices(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            values = random_complete(n, rng).values.copy()
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.6:
                        values[i, j] = values[j, i] = np.nan
            adj = graph_of(PCMatrix(values))
            assert is_connected(adj) == connected_by_union_find(n, edges_of(adj))

