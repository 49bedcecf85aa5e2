import math

import numpy as np
import pytest

from pcrank import (
    IncompleteMatrixError,
    PCMatrix,
    UnrepresentableWeightsError,
    compare_rankings,
    complete_matrix,
    format_ranking,
    method_report,
    normalize,
    ordinal_ranking,
    parse_matrix,
    rank_gm,
    s_complete,
    s_star,
)

from helpers import consistent_complete, example4, random_incomplete


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

    def test_typed_error_is_arithmetic(self):
        assert issubclass(UnrepresentableWeightsError, ArithmeticError)

    def test_unknown_normalization(self):
        with pytest.raises(ValueError):
            normalize(np.array([1.0, 2.0]), "median")
