"""Incomplete pairwise comparison matrices: data type, text format, validation,
and the validated :class:`Problem` that all ranking methods consume.

A pairwise comparison (PC) matrix holds ratios c[i,j] ~ w_i / w_j expressing
how strongly alternative i is preferred over alternative j.  Entries may be
missing; a missing comparison is stored as NaN and written as ``?`` in the
text format.

Text format (UTF-8): one line per row, fields separated by commas, optional
whitespace around each field.  A field is ``?``, a positive decimal (exponent
allowed), or a fraction ``INT/INT``.  Lines starting with ``#`` are comments;
an optional comment ``# labels: name1,name2,...`` before the first data row
assigns alternative names (default ``a1..an``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph import connected_components, graph_of

__all__ = [
    "MISSING",
    "PCMatrix",
    "Violation",
    "ValidationReport",
    "ParseError",
    "ShapeError",
    "InvalidMatrixError",
    "DisconnectedGraphError",
    "parse_matrix",
    "serialize_matrix",
    "validate",
    "repair_reciprocal",
    "default_labels",
    "Problem",
    "prepare",
]

#: Sentinel stored for missing comparisons.
MISSING = math.nan

#: Default relative tolerance for reciprocity (c_ij * c_ji == 1) checks.
#: Decimal renderings of reciprocal pairs (e.g. 0.333333 vs 3) need slack;
#: pass tol=0 for strict mode with exact fraction input.
DEFAULT_TOL = 1e-9


class ParseError(ValueError):
    """Malformed matrix text.  Carries a 1-based line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class ShapeError(ValueError):
    """Rows of unequal length, or row count != column count."""


class InvalidMatrixError(Exception):
    """A matrix failed validation; ``report`` lists every violation."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__("; ".join(v.describe() for v in report.violations))


class DisconnectedGraphError(InvalidMatrixError):
    """The only defects are connectivity ones: no ranking can relate the parts."""


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"a{i + 1}" for i in range(n))


def _check_labels(labels: tuple[str, ...]) -> None:
    """Raise ValueError unless the names are distinct and each is one that a
    ``# labels:`` line reads back unchanged."""
    seen: set[str] = set()
    for name in labels:
        if (
            not name
            or "," in name
            or name.startswith("#")
            or name != name.strip()
            or name.splitlines() != [name]
        ):
            raise ValueError(f"invalid alternative label {name!r}")
        if name in seen:
            raise ValueError(f"duplicate alternative label {name!r}")
        seen.add(name)


@dataclass(frozen=True, eq=False)
class PCMatrix:
    """Square grid of positive ratios with NaN marking missing comparisons.

    Immutable after construction: the constructor copies ``values`` into a
    read-only float array, so later writes to the caller's array do not show;
    safe to share across threads.  Construction checks shape and labels only —
    use :func:`validate` for diagonal, positivity, reciprocity, and
    connectivity.  ``missing_mask`` is the read-only bool (n, n) array, True
    where the comparison is missing; it is computed once, here, and shared.
    The private ``_present`` holds the present entries' read-only flat
    indices, rows and columns, row-major with the diagonal, and each row's
    count of them, from first use.
    """

    values: np.ndarray
    labels: tuple[str, ...] = ()
    missing_mask: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self._own(np.array(self.values, dtype=float))

    def _own(self, v: np.ndarray) -> None:
        """Check the float array ``v`` and the labels, and keep ``v`` read-only."""
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ShapeError(f"expected a square matrix, got shape {v.shape}")
        if v.shape[0] < 2:
            raise ShapeError("a ranking needs at least 2 alternatives")
        if self.labels:
            labels = tuple(self.labels)
            if len(labels) != v.shape[0]:
                raise ValueError(f"{len(labels)} labels for {v.shape[0]} alternatives")
            _check_labels(labels)
        else:
            labels = default_labels(v.shape[0])
        missing = np.isnan(v)
        for a in (v, missing):
            a.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "missing_mask", missing)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @cached_property
    def _present(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        flat = np.flatnonzero(~self.missing_mask)
        rows, cols = np.divmod(flat, self.n)
        edges = (flat, rows, cols, np.bincount(rows, minlength=self.n))
        for a in edges:
            a.setflags(write=False)
        return edges

    def is_complete(self) -> bool:
        return not self.missing_mask.any()

    def equals(self, other: "PCMatrix") -> bool:
        """Entrywise equality, treating missing == missing, plus equal labels."""
        return (
            self.labels == other.labels
            and self.values.shape == other.values.shape
            and bool(np.array_equal(self.values, other.values, equal_nan=True))
        )

    def __repr__(self) -> str:
        return f"PCMatrix(n={self.n}, labels={list(self.labels)!r})"


def _adopt(values: np.ndarray, labels: tuple[str, ...] = ()) -> PCMatrix:
    """A PCMatrix that keeps ``values``, a float array just built here and
    referenced nowhere else, instead of copying it."""
    m = object.__new__(PCMatrix)
    object.__setattr__(m, "labels", labels)
    m._own(values)
    return m


@dataclass(frozen=True)
class Violation:
    """One validation defect.  Indices are 0-based; None for graph-level kinds."""

    kind: str
    i: int | None
    j: int | None
    detail: str

    def describe(self) -> str:
        if self.i is None:
            return f"{self.kind}: {self.detail}"
        return f"{self.kind} ({self.i + 1},{self.j + 1}): {self.detail}"


# Violation kinds
NON_POSITIVE = "NonPositive"
DIAGONAL_NOT_ONE = "DiagonalNotOne"
NON_RECIPROCAL = "NonReciprocal"
ASYMMETRIC_MISSINGNESS = "AsymmetricMissingness"
DISCONNECTED = "Disconnected"
ROW_ALL_MISSING = "RowAllMissing"

_CONNECTIVITY_KINDS = {DISCONNECTED, ROW_ALL_MISSING}


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]
    present_pairs: int
    total_pairs: int

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}


_LABELS_RE = re.compile(r"^#\s*labels\s*:\s*(.*)$")
_FRACTION_RE = re.compile(r"^[+-]?\d+\s*/\s*\d+$")
_DECIMAL_RE = re.compile(r"^[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")


def _parse_token(token: str, line: int, column: int) -> float:
    if token == "?":
        return MISSING
    if not token:
        raise ParseError("empty field", line, column)
    if _FRACTION_RE.match(token):
        num_s, den_s = token.split("/")
        try:
            value = int(num_s) / int(den_s)
        except ZeroDivisionError:
            raise ParseError(f"division by zero in {token!r}", line, column) from None
        except (OverflowError, ValueError):  # quotient beyond float, or too many digits
            raise ParseError(f"numeral out of range {token!r}", line, column) from None
    elif _DECIMAL_RE.match(token):
        value = float(token)
    else:
        raise ParseError(f"invalid token {token!r}", line, column)
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {token!r}", line, column)
    if value <= 0:
        raise ParseError(f"entries must be positive, got {token!r}", line, column)
    return value


def _read_tokens(data: list[tuple[int, str]]) -> np.ndarray:
    """Data rows ``(line number, raw line)`` read token by token; the one place
    a bad token or a ragged row is reported."""
    rows: list[list[float]] = []
    for lineno, raw in data:
        row: list[float] = []
        column = 1
        for piece in raw.split(","):
            token = piece.strip()
            token_col = column + (len(piece) - len(piece.lstrip()))
            row.append(_parse_token(token, lineno, token_col))
            column += len(piece) + 1
        rows.append(row)
    width = len(rows[0])
    for (lineno, _), row in zip(data, rows):
        if len(row) != width:
            raise ShapeError(f"line {lineno}: expected {width} fields, got {len(row)}")
    return np.array(rows, dtype=float)


#: Bytes of data rows the bulk reader takes: ``?``, decimals, fractions, commas.
_BULK_BYTES = b"0123456789.eE+-/?,"

#: The bulk reader's fields, between commas, when the text holds a ``/``: a
#: fraction whose sides are exact as doubles, or a field without ``/``,
#: which float() reads or rejects.
_BULK_FIELDS_RE = re.compile(rb"(?:(?:\+?[0-9]{1,15}/[0-9]{1,15}|[^,/]*),)*")


def _read_bulk(lines: list[str]) -> np.ndarray | None:
    """Data rows read at once when every field is ``?``, a blank-free ASCII
    decimal or a fraction of two ASCII integers of at most 15 digits (only
    the numerator signed, by ``+``), every value is finite and positive, and
    the rows have equal width; None otherwise, for :func:`_read_tokens` to
    read or reject.

    Only the present fields are converted.  Decimals are read in one
    ``np.fromstring`` pass, which converts each field with the routine that
    float() uses and stops at the first field it cannot read whole; over the
    bytes ``[0-9.eE+-]`` float() accepts exactly the language of _DECIMAL_RE,
    as _parse_token reads it.
    """
    # A comma before and after each field; non-ASCII text becomes escapes.
    raw = ",".join(["", *lines, ""]).encode("ascii", "backslashreplace")
    buf = np.frombuffer(raw, dtype=np.uint8)
    sep, mark = buf == ord(","), buf == ord("?")
    if raw.translate(None, _BULK_BYTES) or (mark[1:-1] & ~(sep[:-2] & sep[2:])).any():
        return None  # a byte outside _BULK_BYTES, or a ``?`` inside a field
    kept = buf[1:][~(mark[1:] | mark[:-1])].tobytes()  # less each ``?`` and its comma
    sep_at = np.flatnonzero(sep)
    width = (sep_at.size - 1) // len(lines)  # equal widths: each width-th comma ends a row
    if not np.array_equal(sep_at[width::width], np.cumsum([len(line) + 1 for line in lines])):
        return None  # ragged rows
    missing = mark[1:][sep_at[:-1]]  # each field's first byte
    try:
        if b"/" not in kept:
            # After a sentinel field "1", a field numpy cannot read whole is
            # never last: numpy raises, or (older releases) warns and stops short.
            parsed = np.fromstring(kept + b"1", sep=",")
            if parsed.size != kept.count(b",") + 1:
                return None
            parsed = parsed[:-1]
        elif _BULK_FIELDS_RE.fullmatch(kept):  # a/b is int(a) / int(b): both sides are exact
            # the fields' list is a temporary: on large texts it outweighs the values
            split = [field.partition(b"/") for field in kept.split(b",")[:-1]]
            parsed = np.array([float(a) / float(b) if b else float(a) for a, _, b in split])
            del split
        else:
            return None
    except (ValueError, ZeroDivisionError, DeprecationWarning):  # a field outside the language
        return None
    if not ((parsed > 0) & (parsed < math.inf)).all():
        return None
    values = np.full(missing.size, MISSING)
    values[np.flatnonzero(~missing)] = parsed
    return values.reshape(len(lines), -1)


def parse_matrix(text: str) -> PCMatrix:
    """Parse matrix text into a :class:`PCMatrix`.

    Only shape and token syntax are checked here; semantic problems
    (reciprocity, connectivity, ...) are the job of :func:`validate`.
    A leading byte-order mark is ignored.

    Raises ParseError for a bad token, a zero, negative, non-finite or
    out-of-range numeral, or a labels comment with an empty, unreadable or
    repeated name, and ShapeError for a non-square layout.
    """
    data: list[tuple[int, str]] = []
    labels: list[str] | None = None

    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            m = _LABELS_RE.match(stripped)
            if m and labels is None and not data:
                labels, labels_line = [f.strip() for f in m.group(1).split(",")], lineno
                if any(not name for name in labels):
                    raise ParseError("empty name in labels comment", lineno)
                try:
                    _check_labels(tuple(labels))
                except ValueError as e:
                    raise ParseError(str(e), lineno) from None
            continue
        data.append((lineno, raw))

    if not data:
        raise ShapeError("no matrix rows found")
    values = _read_bulk([raw for _, raw in data])
    if values is None:
        values = _read_tokens(data)
    rows, width = values.shape
    if rows != width:
        raise ShapeError(f"{rows} rows but {width} columns")
    if labels is not None and len(labels) != width:
        names = f"labels comment names {len(labels)} alternatives"
        raise ParseError(f"{names}, matrix has {width}", labels_line)

    return _adopt(values, tuple(labels) if labels else ())


#: Fewest entries for which :func:`serialize_matrix` renders in bulk.  On
#: completed random matrices, best of 7 timings in each of 3 processes on a
#: 2-core x86-64 VM, the bulk renderer took 150-180 against 29-31 us per call
#: at n = 6, 211-232 against 195-209 us at n = 16, 191-265 against 296-324 us
#: at n = 20, and 15-18 against 67-72 ms at n = 300.
_BULK_MIN_ENTRIES = 20 * 20

#: Entries per block of the bulk renderer, which bounds its temporaries.
_BULK_BLOCK = 8192

#: ``"%.17g"`` writes x in [1e-4, 1e17) in fixed notation.  Below 2**50, x is
#: m * 2**e2 with m < 2**53 and x * 10**(16 - E) = m * 5**(16 - E) shifted
#: right by 1 to 46 bits, for E = floor(log10 x) in [-4, 15].
_BULK_RANGE = (1e-4, 2.0**50)

_U64 = np.uint64
#: 5**k for every k = 16 - E that a first, float estimate of E can give.
_POW5 = np.array([5**k for k in range(22)], dtype=_U64)
#: The four ASCII digits of each of 0..9999 as one uint32, and the count of
#: their trailing zeros (4 for 0); built by numpy arithmetic, in about 0.3 ms.
_ASCII4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1)
_DIGITS4 = _ASCII4.reshape(-1, 4).view(np.uint32)[:, 0]
_zero = _ASCII4.reshape(-1, 4) == ord("0")
_ZEROS4 = _zero[:, 3] * (1 + _zero[:, 2] * (1 + _zero[:, 1] * (1 + _zero[:, 0])))
del _ASCII4, _zero
#: Row k is True in columns 0 to k: the bytes of a field whose separator is
#: in column k.
_UPTO = np.arange(25) <= np.arange(25)[:, None]


def _scaled(m: np.ndarray, e2: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, ...]:
    """For x = m * 2**(e2 - 1075) (uint64 m < 2**53, e2 the biased exponent)
    and a decimal exponent e: T = floor(x * 10**(16 - e)), the bits of the
    product below T, and how many bits those are.

    m * 5**(16 - e) needs up to 102 bits, so it is built in two uint64 halves
    from four 32 x 32-bit partial products.  Every operand stays uint64.
    """
    mask, w = _U64(0xFFFFFFFF), _U64(32)
    p = _POW5.take(16 - e)
    ml, mh, pl, ph = m & mask, m >> w, p & mask, p >> w
    low = ml * pl
    mid = ml * ph + mh * pl + (low >> w)
    lo = (mid << w) | (low & mask)
    hi = mh * ph + (mid >> w)
    shift = _U64(1075) - e2 - (16 - e).astype(_U64)
    t = (lo >> shift) | (hi << (_U64(64) - shift))
    return t, lo & ((_U64(1) << shift) - _U64(1)), shift


def _render_rows(v: np.ndarray) -> bytes:
    """The rows of ``v`` in the text format, byte for byte as ``"%.17g"``
    writes each entry and ``?`` for NaN.

    Entries in _BULK_RANGE get their 17 digits N = x * 10**(16 - E), rounded
    half to even, from exact integer arithmetic (:func:`_scaled`), as exact
    float printers do; every other entry is formatted by ``"%.17g"``.  Each
    field fills the start of one 25-byte row, and one boolean compress keeps
    each field and the separator written just past it.
    """
    n = v.shape[1]
    v = v.ravel()
    fast = (v >= _BULK_RANGE[0]) & (v < _BULK_RANGE[1])
    x = np.where(fast, v, 1.0)  # the others' digits are computed and not used
    bits = x.view(_U64)
    m = (bits & _U64(2**52 - 1)) | _U64(2**52)
    e2 = bits >> _U64(52)
    e = np.floor(np.log10(x)).astype(np.intp)
    t, rest, shift = _scaled(m, e2, e)
    # log10 can round across a power of ten; T alone tells which way.
    off = (t >= _U64(10**17)).astype(np.intp) - (t < _U64(10**16))
    wrong = np.flatnonzero(off)
    if wrong.size:
        e[wrong] += off[wrong]
        t[wrong], rest[wrong], shift[wrong] = _scaled(m[wrong], e2[wrong], e[wrong])
    half = _U64(1) << (shift - _U64(1))
    t += (rest > half) | ((rest == half) & (t & _U64(1) == _U64(1)))
    # Rounding cannot carry N to 10**17: no double in _BULK_RANGE lies within
    # half a unit of the 17th digit below a power of ten.

    groups = np.empty((v.size, 5), np.intp)  # N in five groups of 4 digits, "000d" first
    for col in range(4, 0, -1):
        q = t // _U64(10_000)
        groups[:, col] = t - q * _U64(10_000)
        t = q
    groups[:, 0] = t
    zeros = _ZEROS4.take(groups[:, 4])  # trailing zeros of N
    lower_zero = zeros == 4
    for col in range(3, 0, -1):
        zeros += lower_zero * _ZEROS4.take(groups[:, col])
        lower_zero &= groups[:, col] == 0
    # The column after each field: past its last nonzero digit, or before the
    # point when no digit after it is nonzero.
    end = np.where(zeros < 16 - e, 18 - np.minimum(e, 0) - zeros, e + 1)

    # Fields are laid out sorted by E, each E's with column slices, and the
    # entries outside _BULK_RANGE last.
    key = np.where(fast, e, 16).astype(np.int8)
    order = np.argsort(key, kind="stable")
    digits = _DIGITS4.take(groups.take(order, axis=0)).view(np.uint8)  # N's 17 digits at 3:
    lay = np.empty((v.size, 25), np.uint8)
    a = 0
    for ev, count in enumerate(np.bincount(key + 4).tolist(), -4):
        if not count:
            continue
        b, d = a + count, digits[a : a + count]
        if ev == 16:
            # "%.17g" renders NaN, and only NaN, as text containing "nan".
            slow = order[a:b]
            text = ["?" if s == "nan" else s for s in map("%.17g".__mod__, v[slow].tolist())]
            lay[a:b] = np.array(text, dtype="S25").view(np.uint8).reshape(-1, 25)
            end[slow] = list(map(len, text))
        elif ev >= 0:
            lay[a:b, : ev + 1] = d[:, 3 : ev + 4]
            lay[a:b, ev + 1] = ord(".")
            lay[a:b, ev + 2 : 18] = d[:, ev + 4 :]
        else:
            lay[a:b, : 1 - ev] = np.frombuffer(b"0.000", np.uint8)[: 1 - ev]
            lay[a:b, 1 - ev : 18 - ev] = d[:, 3:]
        a = b
    buf = np.empty_like(lay)
    buf.view("V25")[order] = lay.view("V25")

    flat, starts = buf.ravel(), np.arange(0, buf.size, 25)
    flat[starts + end] = ord(",")
    flat[starts[n - 1 :: n] + end[n - 1 :: n]] = ord("\n")
    return flat[_UPTO.take(end, axis=0).ravel()].tobytes()


def serialize_matrix(m: PCMatrix) -> str:
    """Render a matrix in the text format; parse_matrix inverts it exactly.

    Numbers are written with 17 significant digits, enough for a lossless
    float round trip; missing entries are written as ``?``.  Every field is
    exactly what ``"%.17g"`` writes.  Matrices of _BULK_MIN_ENTRIES entries or
    more are rendered in bulk, blocks of rows at a time, with each entry in
    [1e-4, 2**50) printed by exact integer arithmetic (:func:`_render_rows`).
    """
    head ="" if m.labels == default_labels(m.n) else "# labels: " + ",".join(m.labels) + "\n"
    if m.values.size < _BULK_MIN_ENTRIES:
        row_format = ",".join(["%.17g"] * m.n) + "\n"
        # "%.17g" renders NaN, and only NaN, as text containing "nan".
        return head + "".join(row_format % tuple(row) for row in m.values.tolist()).replace("nan", "?")
    step = max(_BULK_BLOCK // m.n, 1)
    blocks = (_render_rows(m.values[i : i + step]) for i in range(0, m.n, step))
    return head + b"".join(blocks).decode("ascii")


def validate(m: PCMatrix, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check diagonal, positivity, reciprocity, missingness symmetry, and
    connectivity.  No defect of the matrix raises; every one is reported.

    ``tol`` is the relative slack on c_ij * c_ji == 1 and on the unit diagonal;
    a negative or NaN ``tol`` raises ValueError.  Violations are listed by
    kind in the order above, each kind in row-major order of its positions
    (a pair's upper one).  Past the diagonal and the graph, only present
    entries and their mirrors are read, from the list of present entries
    that the matrix finds once, on first use."""
    if not tol >= 0:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")
    v, n = m.values, m.n
    adj = graph_of(m)
    flat, rows, cols, counts = m._present
    violations: list[Violation] = []

    diag = np.diag(v)
    for i in np.flatnonzero(np.isnan(diag) | (np.abs(diag - 1.0) > tol)).tolist():
        shown = "?" if math.isnan(diag[i]) else f"{diag[i]:g}"
        violations.append(Violation(DIAGONAL_NOT_ONE, i, i, f"expected 1, got {shown}"))

    off_diagonal = rows != cols
    flat, rows, cols = flat[off_diagonal], rows[off_diagonal], cols[off_diagonal]
    given, mirror = v.take(flat), v.take(cols * n + rows)
    bad = ~np.isfinite(given) | (given <= 0)
    if bad.any():
        for i, j, x in zip(rows[bad].tolist(), cols[bad].tolist(), given[bad].tolist()):
            violations.append(Violation(NON_POSITIVE, i, j, f"got {x:g}"))

    # Each pair once: at its one present entry, or at its entry above the diagonal.
    one_sided = np.isnan(mirror)
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0, 1e200 * 1e200
        error = np.multiply(given, mirror)  # |c_ij * c_ji - 1|, in one buffer
        error -= 1.0
        np.abs(error, out=error)
        flagged = np.flatnonzero(one_sided | (rows < cols) & ~(error <= tol))
    if flagged.size:  # listed in the row-major order of each pair's upper position
        r, c = rows[flagged], cols[flagged]
        flagged = flagged[np.argsort(np.minimum(r, c) * n + np.maximum(r, c))]
        for i, j, k in zip(rows[flagged].tolist(), cols[flagged].tolist(), flagged.tolist()):
            if one_sided[k]:
                detail = f"c[{i + 1},{j + 1}] given but c[{j + 1},{i + 1}] missing"
                violations.append(Violation(ASYMMETRIC_MISSINGNESS, min(i, j), max(i, j), detail))
            else:
                detail = f"{given[k]:g} * {mirror[k]:g} != 1"
                violations.append(Violation(NON_RECIPROCAL, i, j, detail))

    # rows whose one present entry, if any, is the diagonal
    for i in np.flatnonzero(counts == ~np.isnan(diag)).tolist():
        violations.append(Violation(ROW_ALL_MISSING, i, i, "no comparisons in this row"))

    components = connected_components(adj)
    if len(components) > 1:
        parts = ", ".join("{" + ",".join(m.labels[i] for i in comp) + "}" for comp in components)
        detail = f"disconnected comparison graph: components {parts}"
        violations.append(Violation(DISCONNECTED, None, None, detail))

    return ValidationReport(not violations, tuple(violations), int(adj.sum()) // 2, math.comb(n, 2))


@dataclass(frozen=True, eq=False)
class Problem:
    """A matrix that passed validation, with the arrays every method shares.

    Build it with :func:`prepare` only: holding a Problem means the matrix is
    valid and its comparison graph connected.  The present comparisons are
    one edge list in row-major order, diagonal included: entry k is
    c[rows[k], cols[k]] (``rows`` and ``cols`` are the matrix's own arrays),
    and ``logs[k]`` is its logarithm.  ``rhs`` is the b that GM and LLS
    share, b_i = 1/2 sum_j (ln c_ij - ln c_ji) over the present pairs of
    row i: the row sums of the antisymmetric part of ln c, so a pair
    reciprocal only within the tolerance enters the least-squares fit as the
    mean of its two log ratios.  The arrays are read-only.  No n x n array is
    held: each method writes its own from the edge list and the missing mask.
    """

    matrix: PCMatrix
    rhs: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    logs: np.ndarray


def prepare(m: PCMatrix | Problem, tol: float = DEFAULT_TOL) -> Problem:
    """Validate once and assemble what GM, LLS and Harker all need.

    A Problem is returned unchanged.  Raises DisconnectedGraphError when
    connectivity is the only problem :func:`validate` reports,
    InvalidMatrixError otherwise; both carry the full report.  A negative or
    NaN ``tol`` raises ValueError.  The edge list is the matrix's own.
    """
    if isinstance(m, Problem):
        return m
    report = validate(m, tol)
    if not report.ok:
        if report.kinds() <= _CONNECTIVITY_KINDS:
            raise DisconnectedGraphError(report)
        raise InvalidMatrixError(report)
    flat, rows, cols, _ = m._present
    logs = np.log(m.values.take(flat))
    rhs = np.bincount(rows, logs, m.n)
    rhs -= np.bincount(cols, logs, m.n)
    rhs *= 0.5
    for a in (rhs, logs):
        a.setflags(write=False)
    return Problem(m, rhs, rows, cols, logs)


def _row_starts(p: Problem) -> np.ndarray:
    """Where each row's entries begin in the edge list, for
    ``np.add.reduceat``; no row of a valid matrix is empty: each holds its
    diagonal."""
    counts = p.matrix._present[3]
    return np.cumsum(counts) - counts


def repair_reciprocal(m: PCMatrix) -> PCMatrix:
    """Fill each one-sided missing entry with the reciprocal of its partner.

    Returns a new matrix; pairs that are missing on both sides stay missing,
    and so does an entry whose partner's reciprocal is not a positive finite
    double (the partner 5e-324, say, whose reciprocal overflows), so
    :func:`validate` reports the pair as it would without the repair.
    """
    v = m.values.copy()
    one_sided = m.missing_mask & ~m.missing_mask.T
    with np.errstate(over="ignore", divide="ignore"):  # kept missing below
        fill = 1.0 / v.T[one_sided]
    v[one_sided] = np.where((fill > 0) & (fill < math.inf), fill, MISSING)
    return _adopt(v, m.labels)
