import dataclasses
import math
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    parse_matrix,
    prepare,
    rank_gm,
    rank_harker,
    rank_lls,
    repair_reciprocal,
    s_star,
    serialize_matrix,
    validate,
)
import pcrank.matrix
from pcrank.matrix import (
    _LABELS_RE,
    _check_labels,
    _parse_token,
    _read_bulk,
    _read_tokens,
    ASYMMETRIC_MISSINGNESS,
    DIAGONAL_NOT_ONE,
    DISCONNECTED,
    NON_POSITIVE,
    NON_RECIPROCAL,
    ROW_ALL_MISSING,
    default_labels,
)

from helpers import (
    EXAMPLE4_TEXT,
    HUGE_FRACTION,
    UnionFind,
    delete_random_pairs,
    example4,
    random_complete,
    random_incomplete,
    record_calls,
    serialize_by_fstrings,
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
        assert m.missing_mask[0, 1] and m.missing_mask[1, 0]
        assert m.missing_mask[0, 2] and m.missing_mask[1, 3]
        assert (np.diag(m.values) == 1.0).all()
        assert m.labels == ("a1", "a2", "a3", "a4")

    def test_all_ones(self):
        m = parse_matrix("1,1\n1,1")
        assert (m.values == 1.0).all()

    def test_ragged_rows_rejected(self):
        with pytest.raises(ShapeError):
            parse_matrix("1,2\n0.5,1,3")
        with pytest.raises(ShapeError, match="line 2: expected 3 fields, got 2"):
            parse_matrix("1,2,3\n1,2\n1,2,3,4\n")  # 9 fields in 3 rows

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

    @pytest.mark.parametrize("names", ["x,y,x", "x, #y,z", "x,y"])
    def test_labels_rejected_with_their_line(self, names):
        with pytest.raises(ParseError) as exc:
            parse_matrix(f"\n# labels: {names}\n1,2,3\n1/2,1,4\n1/3,1/4,1\n")
        assert exc.value.line == 2

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

    @pytest.mark.parametrize(
        "token", ["nan", "inf", "two", "1//2", "1 2", "", "1?", "?1", "??", "-?", "1e", "+-1"]
    )
    def test_tokens_outside_grammar(self, token):
        with pytest.raises(ParseError):
            parse_matrix(f"1,{token}\n1,1\n")

    def test_values_are_read_only(self):
        m = example4()
        with pytest.raises(ValueError):
            m.values[0, 0] = 5.0
        with pytest.raises(ValueError):
            m.missing_mask[0, 1] = False

    @pytest.mark.parametrize("text", [EXAMPLE4_TEXT, "1,2\n0.5,1\n", "1, 1/2\n2, 1\n"])
    def test_built_matrices_are_read_only(self, text):
        """Parsed, completed and repaired values, whichever reader built them."""
        m = parse_matrix(text)
        for built in (m, complete_matrix(m), repair_reciprocal(m)):
            assert not built.values.flags.writeable and not built.missing_mask.flags.writeable
            with pytest.raises(ValueError):
                built.values[0, 1] = 5.0


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


def parse_by_tokens(text):
    """Token-by-token reference for :func:`parse_matrix`: every field goes
    through ``_parse_token``, in the order of the text."""
    rows, row_lines, labels = [], [], None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            m = _LABELS_RE.match(stripped)
            if m and labels is None and not rows:
                labels, labels_line = [f.strip() for f in m.group(1).split(",")], lineno
                if any(not name for name in labels):
                    raise ParseError("empty name in labels comment", lineno)
            continue
        row, column = [], 1
        for piece in raw.split(","):
            token_col = column + (len(piece) - len(piece.lstrip()))
            row.append(_parse_token(piece.strip(), lineno, token_col))
            column += len(piece) + 1
        rows.append(row)
        row_lines.append(lineno)
    if not rows:
        raise ShapeError("no matrix rows found")
    width = len(rows[0])
    for k, row in enumerate(rows):
        if len(row) != width:
            raise ShapeError(f"line {row_lines[k]}: expected {width} fields, got {len(row)}")
    if len(rows) != width:
        raise ShapeError(f"{len(rows)} rows but {width} columns")
    if labels is not None and len(labels) != width:
        raise ParseError(
            f"labels comment names {len(labels)} alternatives, matrix has {width}", labels_line
        )
    return PCMatrix(np.array(rows, dtype=float), tuple(labels) if labels else ())


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "column", None)


#: Any positive finite float, the subnormal and largest ones included.
POSITIVE = st.one_of(
    st.sampled_from([5e-324, 1.7976931348623157e308]),
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
)
#: Fields the bulk reader takes, and fields it leaves to the token reader.
BULK_FIELDS = st.one_of(
    st.sampled_from(["?", "1", "2", "0.5", ".25", "3.", "1e3", "2.5E-2", "+4", "007"]),
    POSITIVE.map(repr),
)
OTHER_FIELDS = st.sampled_from(
    ["1/3", "7/2", " 2", "3 ", "\t5", "1e400", "1e-400", "0", "-1", "+-1", "1e", "?1", "1?", "-?", "??",
     "", "\u0663", "inf", "nan", "1/0", "1.2.3", "e5", "."]
)


@st.composite
def matrix_texts(draw):
    """Rows of bulk fields, with up to two fields swapped for other ones."""
    n = draw(st.integers(1, 5))
    widths = [n] * n
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):  # ragged rows
        widths[draw(st.integers(0, n - 1))] = draw(st.sampled_from([max(1, n - 1), n + 1]))
    rows = [draw(st.lists(BULK_FIELDS, min_size=w, max_size=w)) for w in widths]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(OTHER_FIELDS)
    lines = []
    if draw(st.booleans()):
        names = [f"x{k}" for k in range(draw(st.sampled_from([n, n, n, n + 1])))]
        lines.append(draw(st.sampled_from(["# labels: ", "#labels:", "  # labels : "])) + ",".join(names))
    for row in rows:
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "\x0c", "   ", "# note"])))
        lines.append(",".join(row))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300)
@given(matrix_texts())
def test_parse_matches_token_reference(text):
    got, want = parse_outcome(parse_matrix, text), parse_outcome(parse_by_tokens, text)
    if isinstance(want, PCMatrix):
        assert isinstance(got, PCMatrix) and got.equals(want)
    else:
        assert got == want


def test_bulk_text_makes_no_token_calls(monkeypatch):
    calls = record_calls(monkeypatch, _parse_token)
    parse_matrix("# labels: x,y,z\n1,?,2.5e-1\n?,1,3\n4,0.33333333333333331,1\n")
    assert calls == []
    parse_matrix("1,1/2\n2,1\n")  # a fraction of short integers: read in bulk
    assert calls == []
    parse_matrix("1,1 / 2\n2,1\n")  # a blank inside a field: read token by token
    assert len(calls) == 4


#: Fields of the bulk reader's language, fractions included.
DIGITS = st.integers(1, 10**15 - 1).map(str)
SIGNED = st.tuples(st.sampled_from(["", "+"]), DIGITS).map("".join)
FRACTION_FIELDS = st.one_of(
    st.just("?"),
    SIGNED,
    st.tuples(SIGNED, DIGITS).map("/".join),
    st.tuples(SIGNED, st.integers(1, 10**12).map("{:015d}".format)).map("/".join),  # leading zeros
    st.sampled_from(["1/3", "1/9", "9/1", "+1/7", "5/3", "999999999999999/1", "1/999999999999999"]),
    POSITIVE.map(repr),
)


@settings(max_examples=300)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(st.lists(FRACTION_FIELDS, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_bulk_fractions_match_token_reference(rows):
    """A fraction whose sides have at most 15 digits is read in bulk as
    float(a) / float(b), bit for bit the token reader's int(a) / int(b)."""
    lines = [",".join(row) for row in rows]
    got = _read_bulk(lines)
    assert got is not None
    assert got.tobytes() == _read_tokens(list(enumerate(lines, start=1))).tobytes()


#: Fractions the bulk reader declines, and what the token reader makes of
#: them: an error message, or the value.
DECLINED_FRACTIONS = [
    ("1/0", "division by zero in '1/0'"),
    ("1/-3", "invalid token '1/-3'"),
    ("1/+3", "invalid token '1/+3'"),
    ("1//3", "invalid token '1//3'"),
    ("/3", "invalid token '/3'"),
    ("3/", "invalid token '3/'"),
    ("1/3/4", "invalid token '1/3/4'"),
    ("1/3.0", "invalid token '1/3.0'"),
    ("1e2/3", "invalid token '1e2/3'"),
    ("+-1/3", "invalid token '+-1/3'"),
    ("0/3", "entries must be positive, got '0/3'"),
    ("00/7", "entries must be positive, got '00/7'"),
    ("-1/3", "entries must be positive, got '-1/3'"),
    (HUGE_FRACTION, f"numeral out of range {HUGE_FRACTION!r}"),
    ("1234567890123456/3", 1234567890123456 / 3),
    ("3/1234567890123456", 3 / 1234567890123456),
    ("1 /3", 1 / 3),
]


@pytest.mark.parametrize("field, want", DECLINED_FRACTIONS, ids=[f for f, _ in DECLINED_FRACTIONS])
def test_declined_fractions_keep_the_token_reader(field, want):
    lines = [f"1,{field},?", "?,1,2", "?,1/2,1"]
    assert _read_bulk(lines) is None
    if isinstance(want, float):
        assert parse_matrix("\n".join(lines)).values[0, 1] == want
    else:
        with pytest.raises(ParseError) as raised:
            parse_matrix("\n".join(lines))
        assert str(raised.value) == f"line 1, column 3: {want}"


#: Texts at the edges of the bulk reader's language: each is read without a
#: token call, by the bulk reader alone.
BULK_EDGE_TEXTS = [
    "?,?\n?,?\n",  # no field present
    "1,?,?\n?,1,?\n?,?,1\n",  # nothing but the diagonal
    "1,2,?\n0.5,1,?\n?,?,1\n",  # rows that end in ",?"
    "?,2,?\r\n0.5,?,?\r\n?,?,?\r\n",  # rows that start with "?,"
]
#: A ``?`` glued to a digit at the start or the end of a row: the bulk
#: reader must decline it, and the token reader reports it.
GLUED_MARK_TEXTS = [
    "1,2?\n?3,1\n",
    "1,2?\r\n?3,1\r\n",
    "1,2?\n0.5,1\n",
    "1,2\n?3,1\n",
    "1,2\r\n?3,1\r\n",
    "1,?35\n2,1\n",
    "1,2\n?35,1\n",
]
#: Decimal texts whose last present field is outside the language: the bulk
#: reader must decline each, whatever numpy makes of that field.
DECLINED_DECIMAL_TEXTS = [
    "1,2\n0.5,1e\n",
    "1,2\n0.5,1-\n",
    "1,2\n0.5,1.5.5\n",
    "1,2,?\n0.5,1,?\n?,?,1e\n",  # followed only by ``?`` fields
    "1,2\n0.5,\n",  # empty
]


@pytest.mark.parametrize("text", BULK_EDGE_TEXTS + GLUED_MARK_TEXTS + DECLINED_DECIMAL_TEXTS)
def test_bulk_edges_match_token_reference(text, monkeypatch):
    calls = record_calls(monkeypatch, _parse_token)
    got = parse_outcome(parse_matrix, text)
    bulk_calls = len(calls)
    want = parse_outcome(parse_by_tokens, text)
    if isinstance(want, PCMatrix):
        assert isinstance(got, PCMatrix) and got.equals(want)
    else:
        assert got == want
    assert (bulk_calls == 0) == (text in BULK_EDGE_TEXTS)


def fromstring_of_older_numpy(data, sep):
    """``np.fromstring(data, sep=sep)`` as numpy releases before the
    unmatched-data error read text: each field's longest prefix that float()
    reads is a value, and at the first field not read whole the reader warns
    DeprecationWarning and returns the values so far."""
    values = []
    for field in data.split(sep.encode()):
        end = len(field)
        while end and not _reads_as_float(field[:end]):
            end -= 1
        if end:
            values.append(float(field[:end]))
        if end < len(field) or not field:
            warnings.warn("string or file could not be read to its end", DeprecationWarning)
            break
    return np.array(values)


def _reads_as_float(field):
    try:
        float(field)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("action", ["ignore", "error"])
@pytest.mark.parametrize("text", DECLINED_DECIMAL_TEXTS)
def test_declined_decimals_without_the_unmatched_data_error(text, action, monkeypatch):
    """Older numpy warns at an unreadable field and returns what it read, the
    readable prefix ``1`` of ``1e`` included; the bulk reader still declines,
    and the token reader reports the field."""
    monkeypatch.setattr(np, "fromstring", fromstring_of_older_numpy)
    want = parse_outcome(parse_by_tokens, text)
    assert want[0] is ParseError
    valid = "1,2,?\n0.5,1,3e0\n?,.25,1\n"  # read by the stand-in as numpy reads it
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        assert parse_outcome(parse_matrix, text) == want
        assert parse_matrix(valid).equals(parse_by_tokens(valid))


#: Decimal fields at the ends of the double range and in every written form.
EDGE_DECIMALS = [
    "5e-324", "4.9406564584124654e-324", "2.2250738585072014e-308", "2.2250738585072009e-308",
    "1.7976931348623157e308", "1E+308", "1e-300", "2.5E-2", "7e0", "+4", "007", ".25", "3.",
    "0.10000000000000001", "0.33333333333333331", "123456789012345678901234567890",
]


@pytest.mark.parametrize("missing", [0.2, 0.9])
def test_large_decimal_text_read_in_bulk(missing, monkeypatch):
    """A 200 x 200 text of 17-digit reprs, exponent forms and the range's
    ends: the bulk reader gives the token reader's bytes, with no token call."""
    rng = np.random.default_rng(25)
    n = 200
    pool = np.array([*EDGE_DECIMALS, *map(repr, np.exp(rng.uniform(-700, 700, 400)).tolist())])
    fields = pool[rng.integers(0, pool.size, (n, n))]
    fields[rng.random((n, n)) < missing] = "?"
    lines = [",".join(row) for row in fields.tolist()]
    calls = record_calls(monkeypatch, _parse_token)
    start = time.perf_counter()
    got = _read_bulk(lines)
    elapsed = time.perf_counter() - start
    assert calls == [] and got is not None
    assert got.tobytes() == _read_tokens(list(enumerate(lines, start=1))).tobytes()
    assert elapsed < 1.0


def accepted_label(name):
    try:
        PCMatrix(np.ones((2, 2)), (name, "b"))
    except ValueError:
        return False
    return True


#: Any label PCMatrix accepts.  Validated here, at import: the first draw
#: from a text strategy builds Hypothesis's codec tables (about a second),
#: which inside a timed draw trips the too_slow health check.
LABELS = st.text(min_size=1, max_size=8).filter(accepted_label)
LABELS.validate()


@st.composite
def pc_matrices(draw, elements=POSITIVE):
    """Matrices of up to 12 alternatives whose entries come from a few drawn
    values and NaN, so that generation stays fast at n = 12."""
    n = draw(st.integers(2, 12))
    pool = np.array([*draw(st.lists(elements, min_size=1, max_size=6)), math.nan])
    values = pool[draw(arrays(np.intp, (n, n), elements=st.integers(0, pool.size - 1)))]
    if draw(st.booleans()):
        return PCMatrix(values, tuple(draw(st.lists(LABELS, min_size=n, max_size=n, unique=True))))
    return PCMatrix(values)


@settings(max_examples=150)
@given(pc_matrices())
def test_roundtrip_property(m):
    assert parse_matrix(serialize_matrix(m)).equals(m)


@settings(max_examples=100)
@given(pc_matrices(elements=st.floats()))
def test_serialize_matches_fstring_reference(m):
    assert serialize_matrix(m) == serialize_by_fstrings(m)


@settings(max_examples=100)
@given(pc_matrices(elements=st.floats()))
def test_bulk_serialize_matches_fstring_reference(m):
    """As above, with every matrix rendered in bulk."""
    with mock.patch.object(pcrank.matrix, "_BULK_MIN_ENTRIES", 0):
        assert serialize_matrix(m) == serialize_by_fstrings(m)


def _near(x, ulps):
    """The doubles within ``ulps`` steps of x, x included."""
    out = [x]
    for toward in (-math.inf, math.inf):
        y = x
        for _ in range(ulps):
            y = math.nextafter(y, toward)
            out.append(y)
    return out


def _ties(rng, parity, count):
    """Doubles u * 2**-r whose decimal expansion u * 5**r has 18 significant
    digits, ending in 5 (u odd), and a 17th digit of the given parity: each
    one is an exact tie for 17-digit rounding."""
    found = []
    while len(found) < count:
        r = int(rng.integers(2, 40))
        lo, hi = -(-(10**17) // 5**r), min(10**18 // 5**r, 2**53)
        if lo >= hi:
            continue
        u = int(rng.integers(lo, hi)) | 1
        x = math.ldexp(u, -r)
        digits = str(u * 5**r)
        if len(digits) == 18 and int(digits[16]) % 2 == parity and 1e-4 <= x < 2.0**50:
            found.append(x)
    return found


def _render_in_bulk(values):
    """``values`` laid out as a matrix (padded with ones), rendered in bulk."""
    values = np.asarray(values, dtype=float)
    n = math.isqrt(values.size - 1) + 1
    m = PCMatrix(np.concatenate([values, np.ones(n * n - values.size)]).reshape(n, n))
    with mock.patch.object(pcrank.matrix, "_BULK_MIN_ENTRIES", 0):
        return serialize_matrix(m), serialize_by_fstrings(m)


class TestBulkRendering:
    """The bulk renderer against ``"%.17g"`` where exact rounding is hardest."""

    def test_powers_of_ten_and_two(self):
        values = [y for k in range(-6, 18) for y in _near(10.0**k, 2)]
        values += [y for k in range(-16, 54) for y in _near(2.0**k, 2)]
        got, want = _render_in_bulk(values)
        assert got == want

    def test_range_ends(self):
        got, want = _render_in_bulk(_near(1e-4, 1) + _near(2.0**50, 1))
        assert got == want

    @pytest.mark.parametrize("parity", [0, 1])
    def test_exact_ties_round_half_to_even(self, parity):
        got, want = _render_in_bulk(_ties(np.random.default_rng(17 + parity), parity, 400))
        assert got == want

    def test_blocks_and_rows(self):
        """Rows split over several blocks, NaN and out-of-range entries among
        in-range ones, and a labels line."""
        rng = np.random.default_rng(5)
        n = 150
        values = np.exp(rng.uniform(-12, 36, (n, n)))
        values[rng.random((n, n)) < 0.05] = math.nan
        values[rng.random((n, n)) < 0.05] *= 1e-12
        m = PCMatrix(values, tuple(f"alt {i}" for i in range(n)))
        assert n * n > pcrank.matrix._BULK_BLOCK
        assert serialize_matrix(m) == serialize_by_fstrings(m)


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


@settings(max_examples=200)
@given(st.data())
def test_validate_matches_loop_reference_on_sparse_matrices(data):
    """Up to 12 alternatives, most pairs missing on both sides, and one-sided
    gaps above and below the diagonal."""
    n = data.draw(st.integers(2, 12))
    values = np.full((n, n), math.nan)
    for i in range(n):
        values[i, i] = data.draw(st.sampled_from([1.0] * 8 + SPECIAL))
        for j in range(i + 1, n):
            kind = data.draw(st.sampled_from(["none"] * 6 + ["both", "upper", "lower", "odd"]))
            x = data.draw(st.floats(1e-3, 1e3))
            if kind in ("both", "upper"):
                values[i, j] = x
            if kind in ("both", "lower"):
                values[j, i] = 1.0 / x
            if kind == "odd":
                values[i, j], values[j, i] = data.draw(st.sampled_from(SPECIAL)), x
    m = PCMatrix(values)
    tol = data.draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    expected, present = validate_by_loops(m, tol)
    report = validate(m, tol)
    assert [v.describe() for v in report.violations] == expected
    assert report.present_pairs == present


def repair_by_loops(m):
    """Pair-by-pair reference for :func:`repair_reciprocal`: a one-sided entry
    takes its partner's reciprocal when that is a positive finite double."""
    v = m.values.tolist()
    for i in range(m.n):
        for j in range(m.n):
            if math.isnan(v[i][j]) and not math.isnan(v[j][i]):
                try:
                    fill = 1.0 / v[j][i]
                except ZeroDivisionError:
                    continue
                if 0.0 < fill < math.inf:
                    v[i][j] = fill
    return PCMatrix(np.array(v), m.labels)


@settings(max_examples=300)
@given(st.data())
def test_repair_matches_loop_reference(data):
    n = data.draw(st.integers(2, 7))
    entries = st.sampled_from(SPECIAL + [0.5, 3.0, 5e-324])  # 1 / 5e-324 overflows
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

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, -math.inf])
    def test_negative_or_nan_tolerance_raises(self, tol):
        m = PCMatrix([[1.0, 3.0], [1 / 3, 1.0]])
        with pytest.raises(ValueError, match="tol must be a number >= 0"):
            validate(m, tol)
        with pytest.raises(ValueError, match="tol must be a number >= 0"):
            prepare(m, tol)

    def test_infinite_tolerance_accepts_any_positive_pair(self):
        assert validate(PCMatrix([[1.0, 3.0], [3.0, 1.0]]), math.inf).ok

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


class TestPrepare:
    def test_shared_arrays(self):
        m = example4()
        p = prepare(m)
        assert p.matrix.equals(m)
        assert [f.name for f in dataclasses.fields(p)] == ["matrix", "rhs", "rows", "cols", "logs"]
        assert np.array_equal(build_system(p), laplacian(graph_of(m)) + 1.0)
        rows, cols = np.divmod(np.flatnonzero(~m.missing_mask), m.n)
        assert np.array_equal(p.rows, rows) and np.array_equal(p.cols, cols)
        assert np.array_equal(p.logs, np.log(m.values[rows, cols]))
        # ln 2, ln 3, ln 1/3 + ln 2, ln 1/2 + ln 1/2 by row, as the matrix is
        # reciprocal; the unit diagonal adds 0
        assert np.allclose(p.rhs, np.log([2, 3, 2 / 3, 1 / 4]), rtol=1e-14, atol=0)
        for a in (p.rhs, p.rows, p.cols, p.logs):
            with pytest.raises(ValueError):
                a[0, ...] = 5
        w = rank_gm(p).weights
        assert s_star(p, w) == s_star(m, w)

    @pytest.mark.parametrize("n, log_range", [(2, 1.0), (9, 2.2), (33, 40.0), (64, 700.0)])
    def test_logs_bit_for_bit(self, n, log_range):
        """The logs are the bits of np.log of the present values gathered in
        row-major order, and the right-hand side agrees with exact half
        differences of the row and column sums."""
        rng = np.random.default_rng(n)
        for p in (0.0, 0.5, 0.9):
            m = random_incomplete(n, rng, p, log_range)
            prepared = prepare(m)
            rows, cols = np.divmod(np.flatnonzero(~m.missing_mask), n)
            assert np.array_equal(prepared.rows, rows) and np.array_equal(prepared.cols, cols)
            logs = np.log(m.values[rows, cols])
            assert prepared.logs.tobytes() == logs.tobytes()
            rhs = [math.fsum([*logs[rows == i], *-logs[cols == i]]) / 2 for i in range(n)]
            assert np.allclose(prepared.rhs, rhs, rtol=1e-12, atol=1e-12 * log_range)

    def test_shares_the_matrix_mask(self):
        m = example4()
        p = prepare(m)
        assert p.matrix.missing_mask is m.missing_mask
        assert p.rows is m._present[1] and p.cols is m._present[2]

    def test_finds_present_entries_once(self, monkeypatch):
        """np.flatnonzero runs over the missing mask once, when the matrix is
        first asked for its present entries; the completed matrix is never
        asked."""
        m = example4()
        w = np.full(m.n, 1 / m.n)
        flatnonzero, shapes = np.flatnonzero, []

        def counting(a):
            if np.ndim(a) == 2:
                shapes.append(np.shape(a))
            return flatnonzero(a)

        monkeypatch.setattr(np, "flatnonzero", counting)
        validate(m)
        p = prepare(m)
        s_star(m, w)
        complete_matrix(p)
        assert shapes == [(4, 4)]

    def test_counts_each_row_once(self, monkeypatch):
        """The per-row counts of present entries come from one np.bincount,
        with the present entries, and every builder and validate read them."""
        m = example4()
        bincount, counted = np.bincount, []

        def counting(x, weights=None, minlength=0):
            if weights is None:
                counted.append(len(x))
            return bincount(x, weights, minlength)

        monkeypatch.setattr(np, "bincount", counting)
        validate(m)
        p = prepare(m)
        build_system(p), build_lls_system(p, 2), build_harker(p)
        assert counted == [10]  # 4 diagonal and 6 off-diagonal entries
        assert np.array_equal(m._present[3], [2, 2, 3, 3])

    def test_raises_typed_error_with_full_report(self):
        disconnected = parse_matrix("1,2,?,?\n1/2,1,?,?\n?,?,1,3\n?,?,1/3,1\n")
        with pytest.raises(DisconnectedGraphError) as exc:
            prepare(disconnected)
        assert exc.value.report == validate(disconnected)
        non_reciprocal = parse_matrix("1,2\n3,1\n")
        with pytest.raises(InvalidMatrixError) as exc:
            prepare(non_reciprocal)
        assert not isinstance(exc.value, DisconnectedGraphError)
        assert exc.value.report.violations
        assert exc.value.report == validate(non_reciprocal)

    def test_validates_once_for_every_method(self, monkeypatch):
        calls = record_calls(monkeypatch, validate)
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
    def test_repr_names_size_and_labels(self):
        assert repr(PCMatrix(np.ones((2, 2)), ("x", "y"))) == "PCMatrix(n=2, labels=['x', 'y'])"

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

    @pytest.mark.parametrize(
        "labels", [(" a", "b"), ("a", "b\t"), ("a\rb", "c"), ("p\x0bq", "r"), ("x\u2028y", "z"), ("\x1c", "y")]
    )
    def test_rejects_labels_the_text_format_would_change(self, labels):
        with pytest.raises(ValueError, match="invalid alternative label"):
            PCMatrix(np.ones((2, 2)), labels)

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate alternative label 'b'"):
            PCMatrix(np.ones((3, 3)), ("b", "c", "b"))

    def test_copies_the_callers_array(self):
        values = np.array([[1.0, 2.0], [0.5, 1.0]])
        m = PCMatrix(values)
        values[0, 1] = 3.0
        assert m.values[0, 1] == 2.0 and not np.shares_memory(m.values, values)
        assert values.flags.writeable and not m.values.flags.writeable

    def test_checks_given_labels_only(self, monkeypatch):
        calls = record_calls(monkeypatch, _check_labels)
        assert PCMatrix(np.ones((3, 3))).labels == default_labels(3)
        assert calls == []
        PCMatrix(np.ones((3, 3)), ["x", "y", "z"])
        assert calls == [(("x", "y", "z"),)]
