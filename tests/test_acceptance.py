"""Acceptance suite: the release criteria, each at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to get one PASS/FAIL line per
criterion.
"""

import itertools
import json
import time
from contextlib import contextmanager

import numpy as np

from pcrank import (
    build_system,
    prepare,
    rank_gm,
    rank_harker,
    rank_lls,
    ordinal_ranking,
    power_iteration,
    s_star,
    solve,
    PCMatrix,
)
from pcrank.cli import main

from helpers import (
    EXAMPLE4_TEXT,
    EXAMPLE4_WEIGHTS,
    connected_by_union_find,
    consistent_complete,
    consistent_incomplete,
    example4,
    random_complete,
    random_incomplete,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}")


def test_golden_example_weights_order_and_runtime():
    with criterion("golden 4x4 example: weights, ordinal ranking, < 10 ms"):
        rank_gm(random_incomplete(5, np.random.default_rng(0)))  # warm-up
        m = example4()
        start = time.perf_counter()
        vector = rank_gm(m, "sum")
        elapsed = time.perf_counter() - start

        # The published two-decimal presentation of these weights rounds the
        # exact values 2/11, 6/11, 2/11, 1/11 (confirmed by the closed-form
        # solution; see helpers.EXAMPLE4_TEXT).  5e-3 is the stated slack,
        # the solver actually lands within 1e-12.
        assert np.abs(vector.weights - EXAMPLE4_WEIGHTS).max() < 5e-3
        assert np.abs(vector.weights - EXAMPLE4_WEIGHTS).max() < 1e-12
        assert ordinal_ranking(vector.weights) == ((1,), (0, 2), (3,))
        assert elapsed < 0.010, f"ranking took {elapsed * 1e3:.2f} ms"


def test_golden_example_system_matrix():
    with criterion("golden 4x4 example: exact log-weight system matrix"):
        system = build_system(example4())
        expected = np.array(
            [
                [2.0, 1.0, 1.0, 0.0],
                [1.0, 2.0, 0.0, 1.0],
                [1.0, 0.0, 3.0, 0.0],
                [0.0, 1.0, 0.0, 3.0],
            ]
        )
        assert np.array_equal(system, expected)


def test_gm_lls_equivalence_on_1000_instances():
    with criterion("GM == LLS within 1e-9 on 1000 random connected instances, < 5 s"):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(3, 11))
            m = random_incomplete(n, rng, p=0.4)
            diff = float(np.abs(rank_gm(m).weights - rank_lls(m).weights).max())
            worst = max(worst, diff)
            assert diff < 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f} s"
        print(f"      worst componentwise difference: {worst:.3e}, {elapsed:.2f} s", end="  ")


def test_gm_minimizes_s_star():
    with criterion("GM weights minimize S* against 500 random + 200 perturbed vectors x100"):
        rng = np.random.default_rng(7)
        log9 = np.log(9.0)
        for _ in range(100):
            n = int(rng.integers(3, 11))
            m = random_incomplete(n, rng, p=0.4)
            weights = rank_gm(m).weights
            best = s_star(m, weights)
            for _ in range(500):
                other = np.exp(rng.uniform(-log9, log9, size=n))
                assert best <= s_star(m, other)
            log_w = np.log(weights)
            for _ in range(200):
                delta = rng.uniform(-0.1, 0.1, size=n)
                assert best <= s_star(m, np.exp(log_w + delta))


def test_nonsingularity_witnesses():
    with criterion("nonsingularity: M 1 = n 1, symmetry, solvability; exhaustive n=4 determinants"):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(3, 11))
            m = random_incomplete(n, rng, p=0.4)
            system = build_system(m)
            assert np.array_equal(system @ np.ones(n), n * np.ones(n))
            assert np.array_equal(system, system.T)
            solve(system, prepare(m).rhs)  # must not raise

        # Exhaustive check at n=4: every subset of the 6 unordered pairs.
        # 38 of the 64 subsets form a connected graph (the count of labeled
        # connected graphs on 4 vertices); on those det(L + J) must be
        # positive, on the rest L + J is singular.
        pairs = list(itertools.combinations(range(4), 2))
        connected_count = 0
        for present in itertools.product([False, True], repeat=6):
            edges = [pairs[k] for k in range(6) if present[k]]
            lap = np.zeros((4, 4))
            for i, j in edges:
                lap[i, i] += 1
                lap[j, j] += 1
                lap[i, j] -= 1
                lap[j, i] -= 1
            det = np.linalg.det(lap + np.ones((4, 4)))
            if connected_by_union_find(4, edges):
                connected_count += 1
                assert det > 0.0
                values = np.ones((4, 4))
                for i, j in edges:
                    values[i, j] = 2.0
                    values[j, i] = 0.5
                for i, j in set(pairs) - set(edges):
                    values[i, j] = values[j, i] = np.nan
                system = build_system(PCMatrix(values))
                assert np.array_equal(system, lap + np.ones((4, 4)))
            else:
                assert abs(det) < 1e-9
        assert connected_count == 38


def test_complete_matrix_reduction():
    with criterion("complete matrices: GM == row geometric means, Harker == classical EVM"):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(2, 11))
            m = random_complete(n, rng)

            means = np.prod(m.values, axis=1) ** (1.0 / n)
            means /= means.sum()
            assert np.abs(rank_gm(m).weights - means).max() < 1e-12

            _, evm = power_iteration(m.values)
            assert np.abs(rank_harker(m).weights - evm).max() < 1e-9


def test_consistency_recovery():
    with criterion("consistent inputs: every method recovers the generator, S* == 0"):
        rng = np.random.default_rng(42)
        for complete in (True, False):
            for _ in range(50):
                n = int(rng.integers(3, 11))
                if complete:
                    m, v = consistent_complete(n, rng)
                else:
                    m, v = consistent_incomplete(n, rng, p=0.4)
                expected = v / v.sum()
                for ranker in (rank_gm, rank_lls, rank_harker):
                    vector = ranker(m)
                    assert np.abs(vector.weights - expected).max() < 1e-9
                    assert s_star(m, vector) <= 1e-18


def test_lls_anchor_independence():
    with criterion("LLS anchor independence within 1e-9 on 100 random instances"):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            n = int(rng.integers(3, 11))
            m = random_incomplete(n, rng, p=0.4)
            reference = rank_lls(m, anchor=0).weights
            for k in range(1, n):
                assert np.abs(rank_lls(m, anchor=k).weights - reference).max() <= 1e-9


def test_cli_contract(tmp_path, capsys):
    with criterion("CLI: exit codes 0/1/2, structured round trip, completion fixed point"):
        good = tmp_path / "good.pcm"
        good.write_text(EXAMPLE4_TEXT)
        disconnected = tmp_path / "disconnected.pcm"
        disconnected.write_text("1,2,?,?\n1/2,1,?,?\n?,?,1,3\n?,?,1/3,1\n")
        broken = tmp_path / "broken.pcm"
        broken.write_text("1,zebra\n1,1\n")

        assert main(["rank", str(good)]) == 0
        capsys.readouterr()
        assert main(["rank", str(disconnected)]) == 1
        capsys.readouterr()
        assert main(["rank", str(broken)]) == 2
        capsys.readouterr()
        assert main(["rank", str(tmp_path / "absent.pcm")]) == 2
        capsys.readouterr()

        # structured output parses back to the library's exact values
        assert main(["rank", "--format", "structured", str(good)]) == 0
        record = json.loads(capsys.readouterr().out)
        vector = rank_gm(example4())
        assert record["weights"] == [float(w) for w in vector.weights]
        assert record["s_star"] == s_star(example4(), vector)
        assert record["ranking"] == [["a2"], ["a1", "a3"], ["a4"]]

        # completing then re-ranking reproduces the weights
        assert main(["complete", str(good)]) == 0
        completed_text = capsys.readouterr().out
        completed_path = tmp_path / "completed.pcm"
        completed_path.write_text(completed_text)
        assert main(["rank", "--format", "structured", str(completed_path)]) == 0
        re_ranked = json.loads(capsys.readouterr().out)
        diff = np.abs(np.array(re_ranked["weights"]) - vector.weights).max()
        assert diff < 1e-9
