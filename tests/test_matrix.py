import math
import string
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcrank import (
    DisconnectedGraphError,
    InvalidMatrixError,
    ParseError,
    PCMatrix,
    ShapeError,
    build_harker,
    build_lls_system,
    build_system,
    complete_matrix,
    graph_of,
    laplacian,
    log_row_sums,
    parse_matrix,
    prepare,
    rank_gm,
    rank_harker,
    rank_lls,
    repair_reciprocal,
    require_valid,
    serialize_matrix,
    validate,
)
from pcrank.matrix import (
    ASYMMETRIC_MISSINGNESS,
    DIAGONAL_NOT_ONE,
    DISCONNECTED,
    NON_POSITIVE,
    NON_RECIPROCAL,
    ROW_ALL_MISSING,
)

from helpers import (
    EXAMPLE4_TEXT,
    HUGE_FRACTION,
    UnionFind,
    delete_random_pairs,
    example4,
    random_complete,
    record_validate_calls,
)

# One matrix with every violation kind, several positions each, and entries
# (inf, 0, 1e200) whose reciprocity products are NaN or overflow.
GOLDEN_VALUES = np.array(
    [
        [np.nan, 2.0, np.inf, 4.0, np.nan, np.nan, np.nan],
        [0.5, 1.0, -3.0, 3.0, np.nan, np.nan, np.nan],
        [0.0, -1 / 3, 2.0, 1e200, np.nan, np.nan, np.nan],
        [np.nan, 0.5, 1e200, np.inf, np.nan, np.nan, np.nan],
        [np.nan, np.nan, np.nan, np.nan, 1.0, np.nan, np.nan],
        [np.nan, np.nan, np.nan, np.nan, 5.0, 1.0, np.nan],
        [np.nan, np.nan, np.nan, np.nan, np.nan, np.nan, 1.0],
    ]
)


class TestParse:
    def test_example4_entries(self):
        m = parse_matrix(EXAMPLE4_TEXT)
        assert m.n == 4
        assert m.values[0, 3] == 2.0
        assert m.values[1, 2] == 3.0
        assert m.values[2, 3] == 2.0
        assert m.values[3, 0] == 0.5
        assert m.values[2, 1] == 1.0 / 3.0
        assert m.values[3, 2] == 0.5
        assert m.is_missing(0, 1) and m.is_missing(1, 0)
        assert m.is_missing(0, 2) and m.is_missing(1, 3)
        assert (np.diag(m.values) == 1.0).all()
        assert m.labels == ("a1", "a2", "a3", "a4")

    def test_all_ones(self):
        m = parse_matrix("1,1\n1,1")
        assert (m.values == 1.0).all()

    def test_ragged_rows_rejected(self):
        with pytest.raises(ShapeError):
            parse_matrix("1,2\n0.5,1,3")

    def test_row_column_count_mismatch(self):
        with pytest.raises(ShapeError):
            parse_matrix("1,2,3\n1/2,1,1\n")

    def test_single_alternative_rejected(self):
        with pytest.raises(ShapeError):
            parse_matrix("1\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ShapeError):
            parse_matrix("# only a comment\n")

    def test_fractions_decimals_exponents(self):
        m = parse_matrix("1, 2/7, .5\n7/2, 1, 2.5e-1\n2., 4e0, 1\n")
        assert m.values[0, 1] == 2 / 7
        assert m.values[0, 2] == 0.5
        assert m.values[1, 2] == 0.25
        assert m.values[2, 0] == 2.0
        assert m.values[2, 1] == 4.0

    def test_labels_comment(self):
        m = parse_matrix("# labels: cost , speed ,comfort\n1,2,3\n1/2,1,4\n1/3,1/4,1\n")
        assert m.labels == ("cost", "speed", "comfort")

    def test_labels_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_matrix("# labels: x,y\n1,2,3\n1/2,1,4\n1/3,1/4,1\n")

    def test_labels_empty_name(self):
        with pytest.raises(ParseError):
            parse_matrix("# labels: x,,z\n1,2,3\n1/2,1,4\n1/3,1/4,1\n")

    def test_comments_and_blank_lines_skipped(self):
        m = parse_matrix("# a comment\n\n1,2\n# another\n1/2,1\n\n")
        assert m.n == 2

    def test_bad_token_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("1, 2\n1/2, abc\n")
        assert exc.value.line == 2
        assert exc.value.column == 6
        assert "abc" in str(exc.value)

    @pytest.mark.parametrize(
        "token",
        ["0", "-2", "0.0", "-1/2", "1e999", "1/0", "0/7", pytest.param(HUGE_FRACTION, id="huge")],
    )
    def test_nonpositive_or_nonfinite_values(self, token):
        with pytest.raises(ParseError) as exc:
            parse_matrix(f"1, {token}\n1,1\n")
        assert (exc.value.line, exc.value.column) == (1, 4)

    @pytest.mark.parametrize("token", ["nan", "inf", "two", "1//2", "1 2", ""])
    def test_tokens_outside_grammar(self, token):
        with pytest.raises(ParseError):
            parse_matrix(f"1,{token}\n1,1\n")

    def test_values_are_read_only(self):
        m = example4()
        with pytest.raises(ValueError):
            m.values[0, 0] = 5.0


class TestSerialize:
    def test_roundtrip_example4(self):
        m = example4()
        assert parse_matrix(serialize_matrix(m)).equals(m)

    def test_all_ones_rendering(self):
        assert serialize_matrix(parse_matrix("1,1\n1,1")) == "1,1\n1,1\n"

    def test_missing_written_symmetrically(self):
        text = serialize_matrix(parse_matrix("1,?\n?,1"))
        rows = text.strip().split("\n")
        assert rows[0].split(",")[1] == "?"
        assert rows[1].split(",")[0] == "?"

    def test_labels_preserved(self):
        m = parse_matrix("# labels: x,y\n1,2\n1/2,1\n")
        again = parse_matrix(serialize_matrix(m))
        assert again.labels == ("x", "y")
        assert again.equals(m)


@st.composite
def pc_matrices(draw):
    n = draw(st.integers(2, 5))
    values = np.ones((n, n))
    ratio = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, exclude_min=True)
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                values[i, j] = values[j, i] = math.nan
            else:
                x = draw(ratio)
                values[i, j] = x
                values[j, i] = 1.0 / x
    if draw(st.booleans()):
        alphabet = string.ascii_letters + string.digits + "_"
        labels = draw(
            st.lists(
                st.text(alphabet, min_size=1, max_size=8), min_size=n, max_size=n, unique=True
            )
        )
        return PCMatrix(values, tuple(labels))
    return PCMatrix(values)


@settings(max_examples=150)
@given(pc_matrices())
def test_roundtrip_property(m):
    assert parse_matrix(serialize_matrix(m)).equals(m)


def validate_by_loops(m, tol):
    """Element-by-element reference for :func:`validate`: violation texts in
    the documented order, and the present-pair count."""
    v, n = m.values, m.n
    miss = np.isnan(v)
    diag, nonpos, pairs, rows = [], [], [], []
    uf = UnionFind(n)
    for i in range(n):
        d = v[i, i]
        if math.isnan(d) or abs(d - 1.0) > tol:
            shown = "?" if math.isnan(d) else f"{d:g}"
            diag.append(f"DiagonalNotOne ({i + 1},{i + 1}): expected 1, got {shown}")
        if all(miss[i, j] for j in range(n) if j != i):
            rows.append(f"RowAllMissing ({i + 1},{i + 1}): no comparisons in this row")
        for j in range(n):
            if i != j and not miss[i, j] and (not math.isfinite(v[i, j]) or v[i, j] <= 0):
                nonpos.append(f"NonPositive ({i + 1},{j + 1}): got {v[i, j]:g}")
            if j <= i:
                continue
            if not (miss[i, j] and miss[j, i]):
                uf.union(i, j)
            if miss[i, j] != miss[j, i]:
                g, a = (i + 1, j + 1) if miss[j, i] else (j + 1, i + 1)
                detail = f"c[{g},{a}] given but c[{a},{g}] missing"
                pairs.append(f"AsymmetricMissingness ({i + 1},{j + 1}): {detail}")
            elif not miss[i, j] and not abs(float(v[i, j]) * float(v[j, i]) - 1.0) <= tol:
                pairs.append(f"NonReciprocal ({i + 1},{j + 1}): {v[i, j]:g} * {v[j, i]:g} != 1")
    groups = {}
    for x in range(n):
        groups.setdefault(uf.find(x), []).append(m.labels[x])
    found = diag + nonpos + pairs + rows
    if len(groups) > 1:
        parts = ", ".join("{" + ",".join(g) + "}" for g in groups.values())
        found.append(f"Disconnected: disconnected comparison graph: components {parts}")
    present = sum(1 for i in range(n) for j in range(i + 1, n) if not (miss[i, j] and miss[j, i]))
    return found, present


SPECIAL = [math.nan, math.nan, 0.0, -1.0, math.inf, -math.inf, 1e200, 1e-200, 2.0, 1 + 2e-9]


@settings(max_examples=300)
@given(st.data())
def test_validate_matches_loop_reference(data):
    n = data.draw(st.integers(2, 7))
    values = np.ones((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                values[i, i] = data.draw(st.sampled_from([1.0, 1.0] + SPECIAL))
            elif i < j:
                x = data.draw(st.floats(1e-3, 1e3))
                values[i, j], values[j, i] = x, 1.0 / x
    for i in range(n):
        for j in range(n):
            if i != j and data.draw(st.booleans()):
                values[i, j] = data.draw(st.sampled_from(SPECIAL))
                if math.isnan(values[i, j]) and data.draw(st.booleans()):
                    values[j, i] = math.nan  # missing on both sides
    m = PCMatrix(values)
    tol = data.draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    expected, present = validate_by_loops(m, tol)
    report = validate(m, tol)
    assert [v.describe() for v in report.violations] == expected
    assert report.present_pairs == present
    assert report.ok == (not expected)


def repair_by_loops(m):
    """Pair-by-pair reference for :func:`repair_reciprocal`."""
    v = m.values.copy()
    for i in range(m.n):
        for j in range(i + 1, m.n):
            if np.isnan(v[i, j]) and not np.isnan(v[j, i]):
                v[i, j] = 1.0 / v[j, i]
            elif np.isnan(v[j, i]) and not np.isnan(v[i, j]):
                v[j, i] = 1.0 / v[i, j]
    return PCMatrix(v, m.labels)


@settings(max_examples=300)
@given(st.data())
def test_repair_matches_loop_reference(data):
    n = data.draw(st.integers(2, 7))
    entries = st.sampled_from([x for x in SPECIAL if x != 0.0] + [0.5, 3.0])  # 1/0 warns
    m = PCMatrix(np.array([[data.draw(entries) for _ in range(n)] for _ in range(n)]))
    assert repair_reciprocal(m).equals(repair_by_loops(m))


class TestValidate:
    def test_example4_is_ok(self):
        report = validate(example4())
        assert report.ok
        assert report.violations == ()
        assert report.present_pairs == 3
        assert report.total_pairs == 6

    def test_ok_iff_no_violations(self):
        good = validate(example4())
        assert good.ok == (not good.violations)
        bad = validate(parse_matrix("1,2\n3,1\n"))
        assert bad.ok == (not bad.violations)

    def test_non_reciprocal_pair(self):
        report = validate(parse_matrix("1,2\n3,1\n"))
        assert not report.ok
        assert [(v.kind, v.i, v.j) for v in report.violations] == [(NON_RECIPROCAL, 0, 1)]
        assert "2 * 3 != 1" in report.violations[0].detail

    def test_reciprocity_tolerance_boundary(self):
        # product within tol passes, outside tol is flagged
        inside = PCMatrix(np.array([[1.0, 2.0], [(1 + 5e-10) / 2.0, 1.0]]))
        outside = PCMatrix(np.array([[1.0, 2.0], [(1 + 5e-9) / 2.0, 1.0]]))
        assert validate(inside, tol=1e-9).ok
        assert NON_RECIPROCAL in validate(outside, tol=1e-9).kinds()

    def test_strict_tolerance(self):
        decimal = parse_matrix("1,0.333333\n3,1\n")
        fractions = parse_matrix("1,1/3\n3,1\n")
        assert not validate(decimal, tol=0.0).ok
        assert validate(fractions, tol=0.0).ok

    def test_asymmetric_missingness(self):
        report = validate(parse_matrix("1,2\n?,1\n"))
        assert ASYMMETRIC_MISSINGNESS in report.kinds()

    def test_disconnected_components_listed(self):
        text = "1,2,?,?\n1/2,1,?,?\n?,?,1,3\n?,?,1/3,1\n"
        report = validate(parse_matrix(text))
        kinds = report.kinds()
        assert DISCONNECTED in kinds
        [violation] = [v for v in report.violations if v.kind == DISCONNECTED]
        assert "{a1,a2}" in violation.detail
        assert "{a3,a4}" in violation.detail

    def test_diagonal_violations(self):
        report = validate(parse_matrix("2,1\n1,1\n"))
        assert DIAGONAL_NOT_ONE in report.kinds()
        report = validate(parse_matrix("?,2\n1/2,1\n"))
        assert DIAGONAL_NOT_ONE in report.kinds()

    def test_non_positive_entry(self):
        values = np.array([[1.0, -2.0], [-0.5, 1.0]])
        report = validate(PCMatrix(values))
        assert NON_POSITIVE in report.kinds()

    def test_row_all_missing(self):
        text = "1,?,?\n?,1,2\n?,1/2,1\n"
        report = validate(parse_matrix(text))
        assert ROW_ALL_MISSING in report.kinds()
        assert DISCONNECTED in report.kinds()

    def test_disconnected_flag_matches_graph_components(self):
        from pcrank import connected_components, graph_of

        rng = np.random.default_rng(33)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            m = delete_random_pairs(random_complete(n, rng), rng, p=0.6)
            flagged = DISCONNECTED in validate(m).kinds()
            assert flagged == (len(connected_components(graph_of(m))) > 1)

    def test_golden_violation_list(self):
        report = validate(PCMatrix(GOLDEN_VALUES))
        assert [v.describe() for v in report.violations] == [
            "DiagonalNotOne (1,1): expected 1, got ?",
            "DiagonalNotOne (3,3): expected 1, got 2",
            "DiagonalNotOne (4,4): expected 1, got inf",
            "NonPositive (1,3): got inf",
            "NonPositive (2,3): got -3",
            "NonPositive (3,1): got 0",
            "NonPositive (3,2): got -0.333333",
            "NonReciprocal (1,3): inf * 0 != 1",
            "AsymmetricMissingness (1,4): c[1,4] given but c[4,1] missing",
            "NonReciprocal (2,4): 3 * 0.5 != 1",
            "NonReciprocal (3,4): 1e+200 * 1e+200 != 1",
            "AsymmetricMissingness (5,6): c[6,5] given but c[5,6] missing",
            "RowAllMissing (5,5): no comparisons in this row",
            "RowAllMissing (7,7): no comparisons in this row",
            "Disconnected: disconnected comparison graph: components "
            "{a1,a2,a3,a4}, {a5,a6}, {a7}",
        ]
        assert (report.present_pairs, report.total_pairs) == (7, 21)
        assert all(type(v.i) is int for v in report.violations if v.i is not None)

    def test_overflowing_products_raise_no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            validate(PCMatrix(GOLDEN_VALUES))

    def test_require_valid_passes_good_matrix(self):
        assert require_valid(example4()).ok

    def test_require_valid_distinguishes_disconnection(self):
        disconnected = parse_matrix("1,2,?,?\n1/2,1,?,?\n?,?,1,3\n?,?,1/3,1\n")
        with pytest.raises(DisconnectedGraphError):
            require_valid(disconnected)
        non_reciprocal = parse_matrix("1,2\n3,1\n")
        with pytest.raises(InvalidMatrixError) as exc:
            require_valid(non_reciprocal)
        assert not isinstance(exc.value, DisconnectedGraphError)
        assert exc.value.report.violations


class TestPrepare:
    def test_shared_arrays(self):
        p = prepare(example4())
        assert p.matrix.equals(example4())
        assert np.array_equal(p.missing, example4().missing_mask)
        assert np.array_equal(p.laplacian, laplacian(graph_of(example4())))
        assert np.array_equal(p.log_row_sums, log_row_sums(example4()))
        with pytest.raises(ValueError):
            p.laplacian[0, 0] = 5.0

    def test_raises_like_require_valid(self):
        with pytest.raises(DisconnectedGraphError):
            prepare(parse_matrix("1,2,?,?\n1/2,1,?,?\n?,?,1,3\n?,?,1/3,1\n"))
        with pytest.raises(InvalidMatrixError) as exc:
            prepare(parse_matrix("1,2\n3,1\n"))
        assert not isinstance(exc.value, DisconnectedGraphError)

    def test_validates_once_for_every_method(self, monkeypatch):
        calls = record_validate_calls(monkeypatch)
        p = prepare(example4())
        assert prepare(p) is p
        for method in (rank_gm, rank_lls, rank_harker, complete_matrix, build_system):
            method(p)
        build_lls_system(p)
        build_harker(p)
        assert len(calls) == 1


class TestRepair:
    def test_fills_reciprocal(self):
        m = repair_reciprocal(parse_matrix("1,2\n?,1\n"))
        assert m.values[1, 0] == 0.5
        assert validate(m).ok

    def test_leaves_symmetric_missing_alone(self):
        m = repair_reciprocal(example4())
        assert m.equals(example4())


class TestConstruction:
    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            PCMatrix(np.ones((2, 3)))

    def test_rejects_n1(self):
        with pytest.raises(ShapeError):
            PCMatrix(np.ones((1, 1)))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            PCMatrix(np.ones((2, 2)), ("a", "b,c"))
        with pytest.raises(ValueError):
            PCMatrix(np.ones((2, 2)), ("a",))
