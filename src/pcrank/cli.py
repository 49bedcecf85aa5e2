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

from .gm import complete_matrix, rank_gm
from .harker import build_harker, rank_harker
from .linalg import ConvergenceError
from .lls import rank_lls
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
from .priority import PriorityVector, UnrepresentableWeightsError

__all__ = ["main", "run"]

_RANKERS = {"gm": rank_gm, "lls": rank_lls, "harker": rank_harker}

#: Domain failures of one method on a valid matrix, reported without a traceback.
_METHOD_ERRORS = (ConvergenceError, UnrepresentableWeightsError)


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
        type=float,
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
        choices=("gm", "lls", "harker"),
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
        "weights": [float(w) for w in report.vector.weights],
        "s_star": report.s_star,
        "ranking": [[labels[i] for i in group] for group in report.ranking],
        "diagnostics": report.diagnostics,
    }


def _diagnostics(method: str, p: Problem, vector: PriorityVector) -> dict:
    x = np.log(vector.weights)
    if method in ("gm", "lls"):
        # The Laplacian residual ignores the constant log-shift that
        # normalization introduces, so it works for both solvers as-is.
        return {"linear_residual": float(np.abs(p.laplacian @ x - p.log_row_sums).max())}
    b = build_harker(p)
    v = vector.weights / vector.weights.sum()
    lam = float((b @ v).sum())
    return {"lambda_max": lam, "eigen_residual": float(np.abs(b @ v - lam * v).max())}


def _cmd_rank(p: Problem, args) -> int:
    m = p.matrix
    try:
        vector = _RANKERS[args.method](p, args.normalize)
    except _METHOD_ERRORS as e:
        print(f"pcrank: {args.method}: {e}", file=sys.stderr)
        return 1
    report = method_report(args.method, m, vector, _diagnostics(args.method, p, vector))
    if args.format == "structured":
        record = {"command": "rank", "labels": list(m.labels)}
        record.update(_report_json(report, m.labels))
        print(json.dumps(record))
    else:
        for label, w in zip(m.labels, vector.weights):
            print(f"{label} {w:.4f}")
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
                    "rows": [[float(x) for x in row] for row in completed.values],
                }
            )
        )
    else:
        sys.stdout.write(serialize_matrix(completed))
    return 0


def _cmd_compare(p: Problem, args) -> int:
    m = p.matrix
    reports: list[MethodReport] = []
    failures: list[tuple[str, str]] = []
    for method, ranker in _RANKERS.items():
        try:
            vector = ranker(p, args.normalize)
        except _METHOD_ERRORS as e:
            failures.append((method, str(e)))
            continue
        reports.append(method_report(method, m, vector, _diagnostics(method, p, vector)))

    max_diff = 0.0
    for a in range(len(reports)):
        for b in range(a + 1, len(reports)):
            diff = float(np.abs(reports[a].vector.weights - reports[b].vector.weights).max())
            max_diff = max(max_diff, diff)

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
        name_width = max(6, *(len(label) for label in m.labels))
        header = "method  " + "".join(f"{label:>{name_width + 2}}" for label in m.labels)
        print(header + f"{'S*(C)':>12}  ranking")
        for r in reports:
            cells = "".join(f"{w:>{name_width + 2}.4f}" for w in r.vector.weights)
            ranking = format_ranking(r.ranking, m.labels)
            print(f"{r.method:<8}{cells}{r.s_star:>12.4g}  {ranking}")
        for name, msg in failures:
            print(f"{name:<8}ERROR: {msg}")
        print(f"max pairwise weight difference: {max_diff:.3g}")
    if not reports:
        print("pcrank: compare: no method produced weights", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
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
