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
from dataclasses import dataclass

import numpy as np

from .graph import connected_components, graph_of, laplacian

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
    "require_valid",
    "default_labels",
    "Problem",
    "prepare",
    "log_row_sums",
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


@dataclass(frozen=True, eq=False)
class PCMatrix:
    """Square grid of positive ratios with NaN marking missing comparisons.

    Immutable after construction (the value array is made read-only); safe to
    share across threads.  Construction checks shape and labels only — use
    :func:`validate` for diagonal, positivity, reciprocity, and connectivity.
    """

    values: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ShapeError(f"expected a square matrix, got shape {v.shape}")
        if v.shape[0] < 2:
            raise ShapeError("a ranking needs at least 2 alternatives")
        labels = tuple(self.labels) if self.labels else default_labels(v.shape[0])
        if len(labels) != v.shape[0]:
            raise ValueError(f"{len(labels)} labels for {v.shape[0]} alternatives")
        for name in labels:
            if not name or "," in name or "\n" in name or name.startswith("#"):
                raise ValueError(f"invalid alternative label {name!r}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def missing_mask(self) -> np.ndarray:
        """Boolean (n, n) array, True where the comparison is missing."""
        return np.isnan(self.values)

    def is_missing(self, i: int, j: int) -> bool:
        return bool(np.isnan(self.values[i, j]))

    def is_complete(self) -> bool:
        return not np.isnan(self.values).any()

    def equals(self, other: "PCMatrix") -> bool:
        """Entrywise equality, treating missing == missing, plus equal labels."""
        return (
            self.labels == other.labels
            and self.values.shape == other.values.shape
            and bool(np.array_equal(self.values, other.values, equal_nan=True))
        )

    def __repr__(self) -> str:
        return f"PCMatrix(n={self.n}, labels={list(self.labels)!r})"


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


def parse_matrix(text: str) -> PCMatrix:
    """Parse matrix text into a :class:`PCMatrix`.

    Only shape and token syntax are checked here; semantic problems
    (reciprocity, connectivity, ...) are the job of :func:`validate`.

    Raises ParseError for a bad token or a zero, negative, non-finite or
    out-of-range numeral, and ShapeError for a non-square layout.
    """
    rows: list[list[float]] = []
    row_lines: list[int] = []
    labels: list[str] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            m = _LABELS_RE.match(stripped)
            if m and labels is None and not rows:
                labels = [f.strip() for f in m.group(1).split(",")]
                if any(not name for name in labels):
                    raise ParseError("empty name in labels comment", lineno)
            continue
        row: list[float] = []
        column = 1
        for piece in raw.split(","):
            token = piece.strip()
            token_col = column + (len(piece) - len(piece.lstrip()))
            row.append(_parse_token(token, lineno, token_col))
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
        raise ParseError(f"labels comment names {len(labels)} alternatives, matrix has {width}")

    return PCMatrix(np.array(rows, dtype=float), tuple(labels) if labels else ())


def serialize_matrix(m: PCMatrix) -> str:
    """Render a matrix in the text format; parse_matrix inverts it exactly.

    Numbers are written with 17 significant digits, enough for a lossless
    float round trip; missing entries are written as ``?``.
    """
    lines = []
    if m.labels != default_labels(m.n):
        lines.append("# labels: " + ",".join(m.labels))
    for row in m.values:
        lines.append(",".join("?" if math.isnan(x) else f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def validate(m: PCMatrix, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check diagonal, positivity, reciprocity, missingness symmetry, and
    connectivity.  Nothing is raised; every problem is reported.

    ``tol`` is the relative slack on c_ij * c_ji == 1 and on the unit diagonal.
    Violations are listed by kind in the order above, each kind in row-major
    order of its positions.
    """
    v = m.values
    n = m.n
    missing = np.isnan(v)
    eye = np.eye(n, dtype=bool)
    violations: list[Violation] = []

    diag = np.diag(v)
    for i in np.flatnonzero(np.isnan(diag) | (np.abs(diag - 1.0) > tol)).tolist():
        shown = "?" if math.isnan(diag[i]) else f"{diag[i]:g}"
        violations.append(Violation(DIAGONAL_NOT_ONE, i, i, f"expected 1, got {shown}"))

    non_positive = ~eye & ~missing & (~np.isfinite(v) | (v <= 0))
    for i, j in np.argwhere(non_positive).tolist():
        violations.append(Violation(NON_POSITIVE, i, j, f"got {v[i, j]:g}"))

    asymmetric = missing != missing.T
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0, 1e200 * 1e200
        non_reciprocal = ~missing & ~missing.T & ~(np.abs(v * v.T - 1.0) <= tol)
    for i, j in np.argwhere(np.triu(asymmetric | non_reciprocal, k=1)).tolist():
        if asymmetric[i, j]:
            given, absent = (i, j) if missing[j, i] else (j, i)
            detail = f"c[{given + 1},{absent + 1}] given but c[{absent + 1},{given + 1}] missing"
            violations.append(Violation(ASYMMETRIC_MISSINGNESS, i, j, detail))
        else:
            violations.append(Violation(NON_RECIPROCAL, i, j, f"{v[i, j]:g} * {v[j, i]:g} != 1"))

    for i in np.flatnonzero((missing | eye).all(axis=1)).tolist():
        violations.append(Violation(ROW_ALL_MISSING, i, i, "no comparisons in this row"))

    adj = graph_of(m)
    components = connected_components(adj)
    if len(components) > 1:
        parts = ", ".join("{" + ",".join(m.labels[i] for i in comp) + "}" for comp in components)
        violations.append(
            Violation(DISCONNECTED, None, None, f"disconnected comparison graph: components {parts}")
        )

    return ValidationReport(
        ok=not violations,
        violations=tuple(violations),
        present_pairs=int(adj.sum()) // 2,
        total_pairs=n * (n - 1) // 2,
    )


def require_valid(m: PCMatrix, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Validate and raise when invalid.

    Raises DisconnectedGraphError when connectivity is the only problem,
    InvalidMatrixError otherwise; both carry the full report.
    """
    report = validate(m, tol)
    if report.ok:
        return report
    if report.kinds() <= _CONNECTIVITY_KINDS:
        raise DisconnectedGraphError(report)
    raise InvalidMatrixError(report)


@dataclass(frozen=True, eq=False)
class Problem:
    """A matrix that passed validation, with the arrays every method shares.

    Build it with :func:`prepare` only: holding a Problem means the matrix is
    valid and its comparison graph connected.  ``missing`` marks the missing
    comparisons; a valid diagonal is never missing.  The arrays are read-only.
    """

    matrix: PCMatrix
    missing: np.ndarray
    laplacian: np.ndarray
    log_row_sums: np.ndarray


def log_entries(m: PCMatrix) -> np.ndarray:
    """ln c[i,j] where the comparison is present, 0 where it is missing."""
    return np.log(np.where(m.missing_mask, 1.0, m.values))


def log_row_sums(m: PCMatrix) -> np.ndarray:
    """Per-row sum of ln over the present entries (the unit diagonal adds 0)."""
    return log_entries(m).sum(axis=1)


def prepare(m: PCMatrix | Problem, tol: float = DEFAULT_TOL) -> Problem:
    """Validate once and assemble what GM, LLS and Harker all need.

    A Problem is returned unchanged.  Raises DisconnectedGraphError /
    InvalidMatrixError exactly as :func:`require_valid` does.
    """
    if isinstance(m, Problem):
        return m
    require_valid(m, tol)
    arrays = (m.missing_mask, laplacian(graph_of(m)), log_row_sums(m))
    for a in arrays:
        a.setflags(write=False)
    return Problem(m, *arrays)


def repair_reciprocal(m: PCMatrix) -> PCMatrix:
    """Fill each one-sided missing entry with the reciprocal of its partner.

    Returns a new matrix; pairs that are missing on both sides stay missing.
    """
    v = m.values.copy()
    one_sided = np.isnan(v) & ~np.isnan(v.T)
    v[one_sided] = 1.0 / v.T[one_sided]
    return PCMatrix(v, m.labels)
