"""Command-line interface: rank, validate, complete, and compare.

Exit codes are a stable scripting contract: 0 success, 1 validation or other
domain failure (including weights that do not fit in a float), 2 I/O or
syntax trouble.  ``--format structured`` emits one JSON record per run with
full-precision weights.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .gm import _solve_gm, complete_matrix
from .harker import _solve_harker
from .linalg import ConvergenceError
from .lls import _solve_lls
from .matrix import (
    DEFAULT_TOL,
    InvalidMatrixError,
    PCMatrix,
    Problem,
    ValidationReport,
    parse_matrix,
    prepare,
    repair_reciprocal,
    serialize_matrix,
    validate,
)
from .metrics import MethodReport, format_ranking, method_report
from .priority import PriorityVector, UnrepresentableWeightsError, normalize

__all__ = ["main", "run"]

#: Each method's solve, in the order ``compare`` reports them: unnormalized
#: weights and the solver diagnostics the CLI prints.
_SOLVERS = {"gm": _solve_gm, "lls": _solve_lls, "harker": _solve_harker}

#: Domain failures of one method on a valid matrix, reported without a traceback.
_METHOD_ERRORS = (ConvergenceError, UnrepresentableWeightsError)


def _tolerance(text: str) -> float:
    """``--tol``'s type: a float of 0 or more, inf included."""
    try:
        tol = float(text)
    except ValueError:
        tol = float("nan")
    if not tol >= 0:  # also NaN
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {text!r}")
    return tol


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcrank",
        description="Rank alternatives from a (possibly incomplete) pairwise comparison matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("path", metavar="file", help="matrix file, or - for standard input")
    common.add_argument(
        "--format",
        choices=("plain", "structured"),
        default="plain",
        help="plain text for humans, or one JSON record with full-precision weights",
    )
    common.add_argument(
        "--tol",
        type=_tolerance,
        default=DEFAULT_TOL,
        metavar="REL",
        help="relative reciprocity tolerance (0 = strict; default %(default)g)",
    )
    common.add_argument(
        "--repair-reciprocal",
        action="store_true",
        help="fill one-sided missing entries with the reciprocal of their partner",
    )

    norm = argparse.ArgumentParser(add_help=False)
    norm.add_argument(
        "--normalize",
        choices=("sum", "max", "none"),
        default="sum",
        help="weight scaling (default %(default)s)",
    )

    p_rank = sub.add_parser("rank", parents=[common, norm], help="compute a priority vector")
    p_rank.add_argument(
        "--method",
        choices=tuple(_SOLVERS),
        default="gm",
        help="ranking method (default %(default)s)",
    )
    sub.add_parser("validate", parents=[common], help="report structural problems")
    sub.add_parser("complete", parents=[common], help="fill missing entries with weight ratios")
    sub.add_parser("compare", parents=[common, norm], help="run all methods side by side")
    return parser


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _print_violations(report: ValidationReport, out) -> None:
    for violation in report.violations:
        print(violation.describe(), file=out)


def _violations_json(report: ValidationReport) -> list[dict]:
    return [
        {
            "kind": v.kind,
            "i": None if v.i is None else v.i + 1,
            "j": None if v.j is None else v.j + 1,
            "detail": v.detail,
        }
        for v in report.violations
    ]


def _report_json(report: MethodReport, labels: tuple[str, ...]) -> dict:
    return {
        "method": report.method,
        "normalization": report.vector.normalization,
        "weights": report.vector.weights.tolist(),
        "s_star": report.s_star,
        "ranking": [[labels[i] for i in group] for group in report.ranking],
        "diagnostics": report.diagnostics,
    }


def _plain_weights(vector: PriorityVector) -> list[str]:
    """Weights as plain output prints them: four decimals when scaled, and
    ``%.6g`` when not, so that wide-range weights keep their exponents."""
    spec = ".6g" if vector.normalization == "none" else ".4f"
    return [format(w, spec) for w in vector.weights.tolist()]


def _run_method(method: str, p: Problem, normalization: str) -> MethodReport | str:
    """One method's report on the problem, or the message of its domain failure."""
    try:
        weights, diagnostics = _SOLVERS[method](p)
        vector = normalize(weights, normalization)
    except _METHOD_ERRORS as e:
        return str(e)
    return method_report(method, p, vector, diagnostics)


def _cmd_rank(p: Problem, args) -> int:
    m = p.matrix
    report = _run_method(args.method, p, args.normalize)
    if isinstance(report, str):
        print(f"pcrank: {args.method}: {report}", file=sys.stderr)
        return 1
    if args.format == "structured":
        record = {"command": "rank", "labels": list(m.labels)}
        record.update(_report_json(report, m.labels))
        print(json.dumps(record))
    else:
        for label, cell in zip(m.labels, _plain_weights(report.vector)):
            print(f"{label} {cell}")
        print("ranking: " + format_ranking(report.ranking, m.labels))
        print(f"S*(C) = {report.s_star:.6g}")
    return 0


def _cmd_validate(m: PCMatrix, args) -> int:
    report = validate(m, args.tol)
    if args.format == "structured":
        print(
            json.dumps(
                {
                    "command": "validate",
                    "ok": report.ok,
                    "present_pairs": report.present_pairs,
                    "total_pairs": report.total_pairs,
                    "violations": _violations_json(report),
                }
            )
        )
        return 0 if report.ok else 1
    if report.ok:
        print(
            "OK: reciprocal, connected, "
            f"{report.present_pairs} of {report.total_pairs} comparisons present"
        )
        return 0
    _print_violations(report, sys.stdout)
    return 1


def _cmd_complete(p: Problem, args) -> int:
    try:
        completed = complete_matrix(p)
    except UnrepresentableWeightsError as e:
        print(f"pcrank: complete: {e}", file=sys.stderr)
        return 1
    if args.format == "structured":
        print(
            json.dumps(
                {
                    "command": "complete",
                    "labels": list(completed.labels),
                    "rows": completed.values.tolist(),
                }
            )
        )
    else:
        sys.stdout.write(serialize_matrix(completed))
    return 0


def _cmd_compare(p: Problem, args) -> int:
    m = p.matrix
    results = {method: _run_method(method, p, args.normalize) for method in _SOLVERS}
    reports = [r for r in results.values() if isinstance(r, MethodReport)]
    failures = [(method, r) for method, r in results.items() if isinstance(r, str)]
    max_diff = 0.0
    if reports:
        weights = np.array([r.vector.weights for r in reports])
        if args.normalize == "none":  # each method has its own scale: compare at unit sum
            weights /= weights.max(axis=1, keepdims=True)  # so that the sum cannot overflow
            weights /= weights.sum(axis=1, keepdims=True)
        max_diff = float(np.ptp(weights, axis=0).max())

    if args.format == "structured":
        record = {
            "command": "compare",
            "labels": list(m.labels),
            "methods": [_report_json(r, m.labels) for r in reports],
            "errors": [{"method": name, "error": msg} for name, msg in failures],
            "max_pairwise_diff": max_diff,
        }
        print(json.dumps(record))
    else:
        rows = [(r, _plain_weights(r.vector)) for r in reports]
        width = 2 + max(6, *map(len, m.labels), *(len(c) for _, cells in rows for c in cells))
        header = "method  " + "".join(f"{label:>{width}}" for label in m.labels)
        print(header + f"{'S*(C)':>12}  ranking")
        for r, cells in rows:
            row = "".join(f"{cell:>{width}}" for cell in cells)
            ranking = format_ranking(r.ranking, m.labels)
            print(f"{r.method:<8}{row}{r.s_star:>12.4g}  {ranking}")
        for name, msg in failures:
            print(f"{name:<8}ERROR: {msg}")
        print(f"max pairwise weight difference: {max_diff:.3g}")
    if not reports:
        print("pcrank: compare: no method produced weights", file=sys.stderr)
        return 1
    return 0


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        matrix = parse_matrix(_read_text(args.path))
    except (OSError, ValueError) as e:  # also UnicodeDecodeError, ParseError, ShapeError
        print(f"pcrank: error: {e}", file=sys.stderr)
        return 2

    if args.repair_reciprocal:
        matrix = repair_reciprocal(matrix)

    if args.command == "validate":
        return _cmd_validate(matrix, args)

    try:
        problem = prepare(matrix, args.tol)
    except InvalidMatrixError as e:
        _print_violations(e.report, sys.stderr)
        return 1

    if args.command == "rank":
        return _cmd_rank(problem, args)
    if args.command == "complete":
        return _cmd_complete(problem, args)
    return _cmd_compare(problem, args)


def run() -> None:
    sys.exit(main())
