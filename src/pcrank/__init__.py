"""Priority vectors from incomplete pairwise comparison matrices.

Three methods over a shared matrix type: the geometric-mean extension for
incomplete data (the default), logarithmic least squares on the comparison
graph's Laplacian, and Harker's eigenvalue completion.  The first two
minimize the same log-quadratic error and agree to rounding error.
"""

from .matrix import (
    MISSING,
    DisconnectedGraphError,
    InvalidMatrixError,
    ParseError,
    PCMatrix,
    Problem,
    ShapeError,
    ValidationReport,
    Violation,
    default_labels,
    log_row_sums,
    parse_matrix,
    prepare,
    repair_reciprocal,
    require_valid,
    serialize_matrix,
    validate,
)
from .graph import connected_components, graph_of, is_connected, laplacian
from .linalg import ConvergenceError, SingularMatrixError, power_iteration, solve
from .priority import Normalization, PriorityVector, normalize
from .gm import GmSystem, build_system, complete_matrix, rank_gm
from .lls import LlsSystem, build_lls_system, rank_lls
from .harker import HarkerSystem, build_harker, rank_harker
from .metrics import (
    IncompleteMatrixError,
    MethodReport,
    compare_rankings,
    format_ranking,
    method_report,
    ordinal_ranking,
    s_complete,
    s_star,
)

__version__ = "0.1.0"

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
    "require_valid",
    "repair_reciprocal",
    "default_labels",
    "Problem",
    "prepare",
    "log_row_sums",
    "graph_of",
    "laplacian",
    "is_connected",
    "connected_components",
    "solve",
    "power_iteration",
    "SingularMatrixError",
    "ConvergenceError",
    "Normalization",
    "PriorityVector",
    "normalize",
    "GmSystem",
    "build_system",
    "rank_gm",
    "complete_matrix",
    "LlsSystem",
    "build_lls_system",
    "rank_lls",
    "HarkerSystem",
    "build_harker",
    "rank_harker",
    "IncompleteMatrixError",
    "s_complete",
    "s_star",
    "ordinal_ranking",
    "format_ranking",
    "compare_rankings",
    "MethodReport",
    "method_report",
]
