import math

import numpy as np
import pytest

from pcrank import (
    IncompleteMatrixError,
    PCMatrix,
    PriorityVector,
    UnrepresentableWeightsError,
    compare_rankings,
    complete_matrix,
    format_ranking,
    method_report,
    normalize,
    ordinal_ranking,
    parse_matrix,
    prepare,
    rank_gm,
    s_complete,
    s_star,
)

from pcrank.metrics import TIE_RTOL

from helpers import LOG9, consistent_complete, example4, random_incomplete


class TestSComplete:
    def test_consistent_matrix_scores_zero(self):
        m, v = consistent_complete(5, np.random.default_rng(0))
        assert s_complete(m, v) < 1e-25

    def test_all_ones_with_uniform_weights(self):
        m = parse_matrix("1,1\n1,1\n")
        assert s_complete(m, np.array([0.5, 0.5])) == 0.0

    def test_two_by_two_mismatch(self):
        # ((1,2),(1/2,1)) against equal weights: both off-diagonal terms
        # contribute (ln 2)^2
        m = parse_matrix("1,2\n1/2,1\n")
        expected = 2 * math.log(2.0) ** 2
        assert s_complete(m, np.array([0.5, 0.5])) == pytest.approx(expected, rel=1e-14)

    def test_requires_complete_matrix(self):
        with pytest.raises(IncompleteMatrixError):
            s_complete(example4(), np.full(4, 0.25))

    def test_pairs_contribute_twice_the_same_term(self):
        rng = np.random.default_rng(1)
        m, _ = consistent_complete(4, rng)
        w = np.exp(rng.uniform(-1, 1, size=4))
        x = np.log(w)
        by_pairs = 0.0
        for i in range(4):
            for j in range(i + 1, 4):
                by_pairs += 2 * (math.log(m.values[i, j]) - (x[i] - x[j])) ** 2
        assert s_complete(m, w) == pytest.approx(by_pairs, rel=1e-12)


class TestSStar:
    def test_equals_completion_error_at_gm_weights(self):
        m = example4()
        w = rank_gm(m)
        assert s_star(m, w) == pytest.approx(s_complete(complete_matrix(m), w), abs=1e-12)

    def test_empty_offdiagonal_sums_to_zero(self):
        values = np.full((3, 3), np.nan)
        np.fill_diagonal(values, 1.0)
        assert s_star(PCMatrix(values), np.full(3, 1 / 3)) == 0.0

    def test_exact_fit_two_by_two(self):
        m = parse_matrix("1,4\n1/4,1\n")
        assert s_star(m, np.array([0.8, 0.2])) == pytest.approx(0.0, abs=1e-30)

    def test_matches_s_complete_on_complete_input(self):
        m = parse_matrix("1,2\n1/2,1\n")
        w = np.array([0.5, 0.5])
        assert s_star(m, w) == s_complete(m, w)

    def test_scale_invariance(self):
        m = random_incomplete(6, np.random.default_rng(2))
        w = rank_gm(m, "none").weights
        base = s_star(m, w)
        for alpha in (0.1, 1.0, 10.0):
            assert s_star(m, alpha * w) == pytest.approx(base, abs=1e-12)

    def test_gm_weights_minimize(self):
        rng = np.random.default_rng(3)
        m = random_incomplete(5, rng)
        best = s_star(m, rank_gm(m))
        for _ in range(200):
            other = np.exp(rng.uniform(-2, 2, size=5))
            assert best <= s_star(m, other)

    def test_rejects_non_positive_weights(self):
        with pytest.raises(ValueError):
            s_star(example4(), np.array([1.0, -1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("weights", [[0.5, 0.3, 0.2, 0.7], [0.5, 0.5]], ids=["longer", "shorter"])
    def test_rejects_weights_of_another_length(self, weights):
        m = parse_matrix("1,2,?\n1/2,1,3\n?,1/3,1\n")
        message = f"dimension mismatch: {len(weights)} weights for 3 alternatives"
        for matrix in (m, prepare(m)):
            with pytest.raises(ValueError, match=message):
                s_star(matrix, np.array(weights))
        with pytest.raises(ValueError, match=message):
            method_report("gm", m, normalize(np.array(weights)), {})

    @pytest.mark.parametrize(
        "n, p, log_range",
        [(2, 0.0, LOG9), (7, 0.4, LOG9), (40, 0.9, LOG9), (40, 0.5, 700.0)],
        ids=["2-0.0", "7-0.4", "40-0.9", "40-0.5-wide"],
    )
    def test_matches_the_dense_grid(self, n, p, log_range):
        # the reference evaluates every (i, j) and zeroes the missing ones;
        # the sum over the present terms alone runs in another order
        rng = np.random.default_rng(n)
        m = random_incomplete(n, rng, p, log_range)
        w = np.exp(rng.uniform(-3, 3, size=n))
        x = np.log(w)
        logs = np.log(np.where(m.missing_mask, 1.0, m.values))
        terms = (logs - (x[:, None] - x[None, :])) ** 2
        expected = float(np.where(m.missing_mask, 0.0, terms).sum())
        assert s_star(m, w) == pytest.approx(expected, rel=1e-12)
        assert s_star(prepare(m), w) == s_star(m, w)


def ranking_by_loop(arr):
    """Tie groups by the element-by-element rule :func:`ordinal_ranking`
    documents."""
    order = sorted(range(arr.size), key=lambda i: (-arr[i], i))
    groups, current, head = [], [order[0]], arr[order[0]]
    for idx in order[1:]:
        if head - arr[idx] <= TIE_RTOL * head:
            current.append(idx)
        else:
            groups.append(tuple(sorted(current)))
            current, head = [idx], arr[idx]
    groups.append(tuple(sorted(current)))
    return tuple(groups)


class TestOrdinalRanking:
    def test_distinct_weights(self):
        assert ordinal_ranking(np.array([0.2, 0.5, 0.3])) == ((1,), (2,), (0,))

    def test_exact_tie_groups(self):
        assert ordinal_ranking(np.array([0.25, 0.5, 0.25])) == ((1,), (0, 2))

    def test_near_tie_within_tolerance(self):
        w = np.array([0.3, 0.3 * (1 + 1e-10), 0.4])
        assert ordinal_ranking(w) == ((2,), (0, 1))

    def test_gap_above_tolerance_splits(self):
        w = np.array([0.3, 0.3 * (1 + 1e-6), 0.4])
        assert ordinal_ranking(w) == ((2,), (1,), (0,))

    def test_matches_sorted_reference(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            base = rng.choice([0.1, 0.2, 0.3], size=int(rng.integers(1, 30)))
            w = base * (1 + rng.choice([0.0, 5e-10, 2e-9, 1e-3], size=base.size))
            assert ordinal_ranking(w) == ranking_by_loop(w)

    def test_distinct_weights_are_singletons(self):
        rng = np.random.default_rng(10)
        for n in (1, 2, 7, 600):
            w = rng.uniform(0.5, 2.0, n)
            assert ordinal_ranking(w) == ranking_by_loop(w)
            assert len(ordinal_ranking(w)) == n

    def test_gaps_at_the_tolerance(self):
        """A gap of exactly TIE_RTOL times the larger weight, and 1 ulp either
        side: ties and singletons fall exactly where the loop puts them."""
        gap, heads = 2.0**-20, [2.0**-20 / TIE_RTOL]
        for _ in range(4):
            heads.append(math.nextafter(heads[-1], math.inf))
        head = next(h for h in heads if TIE_RTOL * h == gap)  # the gap is exact
        edge = head - gap
        sizes = set()
        for below in (math.nextafter(edge, 0), edge, math.nextafter(edge, math.inf)):
            for w in (np.array([100.0, below, head, 2000.0]), np.array([head, below, 1.0, 1.0])):
                assert ordinal_ranking(w) == ranking_by_loop(w)
                sizes.add(len(ordinal_ranking(w)))
        assert len(sizes) > 1  # the sweep crosses the tolerance

    def test_format(self):
        groups = ordinal_ranking(np.array([2 / 11, 6 / 11, 2 / 11, 1 / 11]))
        assert format_ranking(groups, ("a1", "a2", "a3", "a4")) == "a2 > a1 = a3 > a4"


class TestCompareRankings:
    def test_identical_vectors(self):
        w = normalize(np.array([1.0, 2.0, 3.0]))
        assert compare_rankings(w, w) == (0.0, True)

    def test_numeric_and_ordinal_difference(self):
        diff, ordinal_equal = compare_rankings(np.array([0.5, 0.5]), np.array([0.6, 0.4]))
        assert diff == pytest.approx(0.1, abs=1e-15)
        assert not ordinal_equal

    def test_same_order_different_magnitudes(self):
        diff, ordinal_equal = compare_rankings(np.array([0.6, 0.4]), np.array([0.7, 0.3]))
        assert diff == pytest.approx(0.1, abs=1e-15)
        assert ordinal_equal

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compare_rankings(np.array([0.5, 0.5]), np.array([0.3, 0.3, 0.4]))


class TestMethodReport:
    def test_report_fields(self):
        m = example4()
        vector = rank_gm(m)
        report = method_report("gm", m, vector, {"linear_residual": 0.0})
        assert report.method == "gm"
        assert report.s_star >= 0.0
        assert report.ranking == ((1,), (0, 2), (3,))
        assert report.diagnostics == {"linear_residual": 0.0}
        assert report.vector is vector


class TestNormalize:
    @pytest.mark.parametrize("normalization", ["sum", "max", "none"])
    def test_scales(self, normalization):
        w = normalize(np.array([1.0, 3.0]), normalization).weights
        expected = {"sum": [0.25, 0.75], "max": [1 / 3, 1.0], "none": [1.0, 3.0]}
        assert np.array_equal(w, expected[normalization])

    @pytest.mark.parametrize(
        "weights",
        [[1e-300, 1e300], [np.inf, 1.0], [1e308, 1e308], [0.0, 1.0]],
        ids=["underflow", "inf", "sum-overflow", "zero"],
    )
    def test_unrepresentable_raises_typed_error(self, weights):
        with pytest.raises(UnrepresentableWeightsError):
            normalize(np.array(weights))

    @pytest.mark.parametrize("normalization", ["sum", "max", "none"])
    def test_keeps_its_own_copy(self, normalization):
        given = np.array([1.0, 3.0])
        v = normalize(given, normalization)
        given[0] = 5.0  # still the caller's, and writable
        assert v.weights[0] == {"sum": 0.25, "max": 1 / 3, "none": 1.0}[normalization]
        with pytest.raises(ValueError):
            v.weights[0] = 2.0

    def test_typed_error_is_arithmetic(self):
        assert issubclass(UnrepresentableWeightsError, ArithmeticError)

    def test_unknown_normalization(self):
        with pytest.raises(ValueError, match="^unknown normalization 'median'$"):
            normalize(np.array([1.0, 2.0]), "median")

    @pytest.mark.parametrize(
        "weights, normalization, message",
        [
            ([[0.5, 0.5]], "sum", "1-d"),
            ([0.25, 0.5], "sum", "sum to 1"),
            ([0.5, 0.75], "max", "peak at 1"),
            ([0.5, 0.5], "foo", "^unknown normalization 'foo'$"),
        ],
        ids=["not-1d", "sum-not-1", "max-not-1", "unknown-name"],
    )
    def test_priority_vector_rejections(self, weights, normalization, message):
        with pytest.raises(ValueError, match=message):
            PriorityVector(np.array(weights), normalization)
