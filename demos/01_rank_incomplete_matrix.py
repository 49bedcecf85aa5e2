"""
Ranking alternatives from an incomplete comparison matrix
=========================================================

Four alternatives were compared, but only three of the six possible
comparisons were made: a1 vs a4, a2 vs a3, and a3 vs a4.  This script walks
through the whole pipeline: parse, validate, inspect the comparison graph,
rank, and fill in the missing comparisons.
"""

import numpy as np

from pcrank import (
    complete_matrix,
    format_ranking,
    graph_of,
    ordinal_ranking,
    parse_matrix,
    rank_gm,
    s_star,
    serialize_matrix,
    validate,
)

# ? marks a comparison that was never made.  Fractions keep reciprocal pairs
# exact (1/3 as text, not 0.333333).
TEXT = """\
1,   ?,   ?,   2
?,   1,   3,   ?
?,   1/3, 1,   2
1/2, ?,   1/2, 1
"""

matrix = parse_matrix(TEXT)
print("parsed:", matrix)

# Validation checks the unit diagonal, positivity, reciprocity, and that the
# comparison graph is connected (without connectivity no ranking can relate
# all alternatives).
report = validate(matrix)
print(f"valid: {report.ok}, {report.present_pairs} of {report.total_pairs} comparisons present")

# The comparison graph is a boolean adjacency array: one edge per compared pair.
adj = graph_of(matrix)
print("graph edges (0-based):", np.argwhere(np.triu(adj)).tolist())
print("degrees:", adj.sum(axis=1).tolist())

# The geometric-mean method treats each missing entry as the unknown ratio
# w_i / w_j and solves one small linear system for the log-weights.
vector = rank_gm(matrix)
print()
for label, weight in zip(matrix.labels, vector.weights):
    print(f"  {label}  {weight:.4f}")
print("ranking:", format_ranking(ordinal_ranking(vector.weights), matrix.labels))
print("log-quadratic error S*:", f"{s_star(matrix, vector):.3g}")

# The three comparisons happen to be mutually consistent, so the weights are
# exact simple fractions:
print("exact fractions:", [f"{w * 11:.0f}/11" for w in vector.weights])
assert np.abs(vector.weights - np.array([2, 6, 2, 1]) / 11).max() < 1e-12

# Completing the matrix replaces each ? with the fitted ratio w_i / w_j.
# Present entries are untouched, and re-ranking the completed matrix gives
# the same weights back (the method is a fixed point of its own completion).
completed = complete_matrix(matrix)
print("\ncompleted matrix:")
print(serialize_matrix(completed))
assert np.abs(rank_gm(completed).weights - vector.weights).max() < 1e-12
print("re-ranking the completed matrix reproduces the weights: OK")
