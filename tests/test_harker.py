import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcrank.harker
import pcrank.linalg
from pcrank import (
    DisconnectedGraphError,
    PCMatrix,
    UnrepresentableWeightsError,
    build_harker,
    compare_rankings,
    ordinal_ranking,
    parse_matrix,
    power_iteration,
    prepare,
    rank_gm,
    rank_harker,
    serialize_matrix,
)
from pcrank.cli import main
from pcrank.harker import _solve_harker

from helpers import (
    CHAIN_TEXT,
    CIRCULANT_TEXT,
    SLACK_OVERFLOW_TEXT,
    SUBNORMAL_PERRON_TEXTS,
    consistent_complete,
    example4,
    random_complete,
    random_incomplete,
    record_calls,
)


class TestBuildHarker:
    def test_example4_matrix(self):
        system = build_harker(example4())
        # rows 1 and 2 are missing two comparisons each, rows 3 and 4 one each
        assert np.array_equal(np.diag(system), [3.0, 3.0, 2.0, 2.0])
        assert np.array_equal(example4().missing_mask.sum(1), [2, 2, 1, 1])
        assert system[0, 3] == 2.0
        assert system[0, 1] == 0.0
        assert system[2, 1] == pytest.approx(1 / 3)
        assert system[3, 0] == 0.5

    def test_complete_matrix_is_unchanged(self):
        m = random_complete(5, np.random.default_rng(0))
        assert np.array_equal(build_harker(m), m.values)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            build_harker(parse_matrix("1,2,?,?\n1/2,1,?,?\n?,?,1,3\n?,?,1/3,1\n"))


class TestRankHarker:
    def test_consistent_complete_recovery(self):
        m = parse_matrix("1,1/2,1/4\n2,1,1/2\n4,2,1\n")
        vector = rank_harker(m)
        assert np.abs(vector.weights - np.array([1 / 7, 2 / 7, 4 / 7])).max() < 1e-9

    def test_example4_order_matches_gm(self):
        harker = rank_harker(example4())
        gm = rank_gm(example4())
        _, ordinal_equal = compare_rankings(harker, gm)
        assert ordinal_equal
        assert ordinal_ranking(harker.weights) == ((1,), (0, 2), (3,))

    def test_single_comparison(self):
        vector = rank_harker(parse_matrix("1,4\n1/4,1\n"))
        assert np.abs(vector.weights - np.array([0.8, 0.2])).max() < 1e-9

    def test_strictly_positive_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            m = random_incomplete(int(rng.integers(3, 10)), rng)
            assert (rank_harker(m).weights > 0).all()

    def test_complete_equals_classical_evm(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = random_complete(int(rng.integers(2, 10)), rng)
            _, v = power_iteration(m.values)
            assert np.abs(rank_harker(m).weights - v).max() < 1e-9

    def test_eigenvalue_at_least_n_for_complete(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            n = int(rng.integers(3, 10))
            lam, _ = power_iteration(random_complete(n, rng).values)
            assert lam >= n - 1e-9

    def test_eigenvalue_equals_n_iff_consistent(self):
        rng = np.random.default_rng(4)
        m, _ = consistent_complete(6, rng)
        lam, _ = power_iteration(m.values)
        assert lam == pytest.approx(6.0, rel=1e-10)

        perturbed = m.values.copy()
        perturbed[0, 1] *= 4.0
        perturbed[1, 0] /= 4.0
        lam, _ = power_iteration(perturbed)
        assert lam > 6.0 + 1e-6


def test_wide_log_ratios_converge():
    # Log ratios up to +-30 let one inconsistent cycle dominate B, so its
    # leading eigenvalues share a modulus and plain power iteration runs out
    # of steps.  Every vector must be the Perron vector: its Collatz-Wielandt
    # bounds min and max of (B v) / v enclose lambda_max to 1e-10.
    rng = np.random.default_rng(7)
    for _ in range(30):
        m = random_incomplete(int(rng.integers(3, 11)), rng, log_range=30.0)
        v, diagnostics = _solve_harker(prepare(m))
        lam = diagnostics["lambda_max"]
        ratios = build_harker(m) @ v / v
        assert ratios.min() >= lam * (1 - 1e-10) and ratios.max() <= lam * (1 + 1e-10)


#: The Perron vector, summing to 1, and the Perron root of B for
#: ``random_incomplete(8, default_rng(20), 0.4, 700.0)``, from mpmath's
#: eigensolver at 1500 digits.  The vector spans 1e-292: it fits in a double.
WIDE_PERRON = np.array([
    5.5689234569594011e-293, 4.8523964784794684e-6, 1.7391329206700146e-148,
    2.9284031965348003e-277, 1.1223455271054167e-29, 6.1462028752639749e-214,
    9.3435887177011741e-186, 0.99999514760352152,
])
WIDE_LAMBDA = 1.6736737918156516e153

#: A valid 12x12 with |ln c_ij| in [690, 709.7], draw 3595 (0-based) of the
#: seeded search that ROADMAP describes.  max(B v / v) overflows at every
#: Noda step, yet the Perron root, just below the largest double, and the
#: Perron vector (from mpmath's eigensolver at 850 digits) fit in a double.
EDGE_TEXT = """\
1,?,5.8658062305169976e-306,7.5967992086699924e-304,?,1.7522446716327113e+303,5.2282201347386578e+304,?,7.9444943599268356e+303,?,5.7427405554480269e+299,3.2727334124897866e-307
?,1,2.2078666799388004e+301,?,2.346365243447554e-304,?,1.4965395488834812e+302,3.6004920964839586e+304,2.2525968152958834e+301,2.0842187110154678e-302,?,?
1.7047954888067663e+305,4.5292589859987329e-302,1,?,?,?,?,3.1339691915917679e-302,3.3864631547547026e+302,1.6414406501098549e+305,?,3.0989618008169106e-304
1.3163438607917014e+303,?,?,1,1.0043720033862912e-301,7.0787661300957307e-309,5.5527732122276051e+304,9.9919789625072541e-309,4.9869823546623199e+305,?,7.1029966669732958e+307,8.866669861560765e+307
?,4.2619110677359126e+303,?,9.9564702782280793e+300,1,1.2819114798027355e-301,6.0208768097629564e-302,?,?,1.0003644897769903e-300,?,7.5007944889198987e-303
5.7069655635945936e-304,?,?,1.4126755731460736e+308,7.8008506496398883e+300,1,?,5.5415008380847351e+303,7.8052254624858511e-301,4.4645277799767397e-305,1.7610922768888005e-300,6.6730246430942131e+307
1.912696815031846e-305,6.6820820121063096e-303,?,1.8009019309449344e-305,1.6608876607116136e+301,?,1,9.7521599472640687e-304,2.5683369394584963e+307,1.9969774695536535e+300,1.1347968398754248e-306,?
?,2.7773981255966227e-305,3.1908418330433299e+301,1.0008027476361633e+308,?,1.8045652779249998e-304,1.0254138625777422e+303,1,1.4051982717579313e+308,?,4.7175196245647321e+300,6.8170827135388661e-309
1.2587333500343872e-304,4.4393208460993402e-302,2.95293335347815e-303,2.0052206502497488e-306,?,1.2811929710503386e+300,3.8935701334063992e-308,7.1164334606601807e-309,1,1.7812091815543405e+301,?,1.4171675251208074e+305
?,4.7979609563757463e+301,6.0922093036569684e-306,?,9.9963564302740146e+299,2.2398785477043443e+304,5.0075677630129253e-301,?,5.6141637397544055e-302,1,2.248232901143498e+304,5.0356773120495908e+303
1.7413288835612106e-300,?,?,1.4078564961879908e-308,?,5.6782941650657315e+299,8.8121500242261642e+305,2.1197580075615824e-301,?,4.447937753652565e-305,1,3.9488774481809778e-301
3.0555498232263079e+306,?,3.2268871456769559e+303,1.1278191424891669e-308,1.3331921058191775e+302,1.4985708183093272e-308,?,1.4669031344067155e+308,7.0563287845221714e-306,1.9858301833740536e-304,2.5323652433443912e+300,1
"""
EDGE_PERRON = np.array([
    6.3666415772263862e-06, 5.8184634558668283e-05, 1.4845981413857195e-07,
    0.19236032563039929, 1.9797121872972985e-08, 0.39346928051725255,
    7.2266072035187916e-05, 0.17657994653062073, 0.00030745289406682713,
    9.1581286579267373e-05, 5.8484557932258832e-07, 0.23705384269039495,
])
EDGE_LAMBDA = 1.0926879254101641e308


@pytest.mark.parametrize(
    "make, perron, lam",
    [
        (lambda: random_incomplete(8, np.random.default_rng(20), 0.4, 700.0), WIDE_PERRON, WIDE_LAMBDA),
        (lambda: parse_matrix(EDGE_TEXT), EDGE_PERRON, EDGE_LAMBDA),
    ],
    ids=["8x8", "12x12"],
)
def test_noda_bound_overflowing_after_the_power_steps(make, perron, lam, tmp_path, capsys):
    # After the power steps max(B v / v) overflows, so the Noda steps shift
    # at the largest double; a power step taken instead would leave v as far
    # off scale.
    m = make()
    assert np.abs(rank_harker(m).weights / perron - 1.0).max() <= 1e-9
    _, diagnostics = _solve_harker(prepare(m))
    assert diagnostics["lambda_max"] == pytest.approx(lam, rel=1e-12, abs=0)
    path = tmp_path / "wide.csv"
    path.write_text(serialize_matrix(m))
    assert main(["compare", str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:4]
    assert [row.split()[0] for row in rows] == ["gm", "lls", "harker"]
    assert rows[2].split()[1 : m.n + 1] == [f"{w:.4f}" for w in perron]


def test_underflowing_eigenvector_raises_typed_error():
    # valid and connected, but the eigenvector spans 1e600: its tail underflows to 0
    with pytest.raises(UnrepresentableWeightsError):
        rank_harker(parse_matrix(CHAIN_TEXT))


def test_overflowing_eigenvalue_raises_typed_error():
    # The weights are uniform, but the l1 norm of B v overflows at the first
    # power step, and so does every entry of B v / v, a lower bound on lambda_max.
    m = parse_matrix(CIRCULANT_TEXT)
    assert np.allclose(rank_gm(m).weights, 1 / 6, rtol=1e-15, atol=0)
    with pytest.raises(UnrepresentableWeightsError, match="eigenvalue is not representable"):
        rank_harker(m)


def test_power_step_whose_norm_overflows_is_rescaled():
    # Every entry above the diagonal is 1.7e308.  The l1 norm of B v overflows
    # at the first power step, but B v / v does not at the last row, so the
    # step is rescaled.  lambda_max is at least 1.7e308 ** (2/3), from the
    # cycle a1 > ... > a6 > a1, so the last weight is below 1e-500.
    i, j = np.indices((6, 6))
    values = np.select([i < j, i > j], [1.7e308, 1.0 / 1.7e308], 1.0)
    with pytest.raises(UnrepresentableWeightsError, match="eigenvector is not representable"):
        rank_harker(PCMatrix(values))


def test_overflowing_slack_raises_no_warning():
    # Noda steps reach vectors with subnormal entries whose columns of B sum
    # past the largest double; the iteration still ends in a typed error.
    with pytest.raises(UnrepresentableWeightsError):
        rank_harker(parse_matrix(SLACK_OVERFLOW_TEXT))


@pytest.mark.parametrize(
    "eig_max_n", [pcrank.linalg._EIG_MAX_N, 0], ids=["eigensolve", "iteration"]
)
@pytest.mark.parametrize("edge_work", [pcrank.harker._EDGE_WORK, 0], ids=["dense", "edges"])
@pytest.mark.parametrize("draw", sorted(SUBNORMAL_PERRON_TEXTS))
def test_perron_entry_below_the_normal_range_raises(draw, edge_work, eig_max_n, monkeypatch):
    # The Perron vector's smallest entry fits in no double.  Only the normal
    # range carries relative precision, so no path may return an entry
    # below it, however well the vector passes the residual tests.
    monkeypatch.setattr(pcrank.linalg, "_EIG_MAX_N", eig_max_n)
    monkeypatch.setattr(pcrank.harker, "_EDGE_WORK", edge_work)
    with pytest.raises(UnrepresentableWeightsError, match="eigenvector is not representable"):
        rank_harker(parse_matrix(SUBNORMAL_PERRON_TEXTS[draw]))


def perron_vector(a: np.ndarray) -> np.ndarray:
    """Dense eigensolver's eigenvector of the eigenvalue of largest real part,
    scaled to sum 1."""
    values, vectors = np.linalg.eig(a)
    v = np.abs(vectors[:, np.argmax(values.real)].real)
    return v / v.sum()


def from_edges(n: int, edges: dict[tuple[int, int], float]) -> PCMatrix:
    values = np.full((n, n), np.nan)
    np.fill_diagonal(values, 1.0)
    for (i, j), c in edges.items():
        values[i, j], values[j, i] = c, 1.0 / c
    return PCMatrix(values)


SAATY = [1 / 9, 1 / 7, 1 / 5, 1 / 3, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]


class TestShiftedIteration:
    """rank_harker iterates on B - mu*I, mu the smallest missing count per row."""

    def test_iterates_with_smallest_diagonal_one(self, monkeypatch):
        m = random_incomplete(9, np.random.default_rng(5), p=0.6)
        calls = record_calls(monkeypatch, power_iteration)
        rank_harker(m)
        (iterated,) = calls[0]
        b = build_harker(m)
        assert np.diag(iterated).min() == 1.0
        assert np.array_equal(np.diag(b) - np.diag(iterated), np.full(9, np.diag(b).min() - 1))
        off = ~np.eye(9, dtype=bool)
        assert np.array_equal(iterated[off], b[off])

    @pytest.mark.parametrize("n", [4, 6])
    def test_even_cycle(self, n):
        # Regular and bipartite: every row misses n - 3 pairs.  Shifting by
        # the smallest diagonal entry would zero the diagonal and leave a
        # periodic matrix that power iteration cannot converge on.
        m = from_edges(n, {(k, (k + 1) % n): c for k, c in enumerate([2.0, 3.0, 5.0, 7.0, 1 / 4, 6.0][:n])})
        assert np.array_equal(m.missing_mask.sum(1), np.full(n, n - 3))
        assert np.abs(rank_harker(m).weights - perron_vector(build_harker(m))).max() < 1e-9

    def test_two_alternatives(self):
        vector = rank_harker(parse_matrix("1,3\n1/3,1\n"))
        assert np.abs(vector.weights - np.array([0.75, 0.25])).max() < 1e-12

    def test_tree_recovers_the_consistent_weights(self):
        # A tree is consistent, so B w = n w for the GM weights.
        rng = np.random.default_rng(6)
        n = 9
        m = from_edges(n, {(int(rng.integers(0, k)), k): float(rng.choice(SAATY)) for k in range(1, n)})
        weights = rank_harker(m).weights
        assert np.abs(weights - rank_gm(m).weights).max() < 1e-9
        assert np.abs(weights - perron_vector(build_harker(m))).max() < 1e-9

    def test_complete_matrix_is_iterated_unshifted(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 11):
            m = random_complete(n, rng)
            assert np.array_equal(rank_harker(m, "none").weights, power_iteration(build_harker(m))[1])


@st.composite
def saaty_connected(draw):
    """Reciprocal Saaty-scale matrices of 2 to 15 alternatives on a random
    spanning tree plus random extra pairs."""
    n = draw(st.integers(2, 15))
    ratio = st.sampled_from(SAATY)
    edges = {(draw(st.integers(0, k - 1)), k): draw(ratio) for k in range(1, n)}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and draw(st.booleans()):
                edges[i, j] = draw(ratio)
    return from_edges(n, edges)


@settings(max_examples=200, deadline=None)
@given(saaty_connected())
def test_matches_dense_eigensolver(m):
    assert np.abs(rank_harker(m).weights - perron_vector(build_harker(m))).max() < 1e-9
