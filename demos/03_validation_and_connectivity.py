"""
What validation catches, and why connectivity matters
=====================================================

Comparison data collected from people is messy: typos break reciprocity,
one-sided entries appear, and with too many skipped comparisons the data can
fall apart into groups that were never compared against each other.  This
script shows how each defect is reported and what happens to the comparison
graph as comparisons are removed.
"""

import numpy as np

from pcrank import (
    DisconnectedGraphError,
    PCMatrix,
    connected_components,
    graph_of,
    is_connected,
    parse_matrix,
    rank_gm,
    repair_reciprocal,
    validate,
)

# --- a matrix with several independent defects ---------------------------
messy = parse_matrix(
    """
# labels: price,quality,service,brand
1,    2,   4,   ?
0.4,  1,   ?,   5
1/4,  2/5, 1,   ?
?,    1/5, ?,   1
"""
)
report = validate(messy)
print("defects found:")
for violation in report.violations:
    print("  " + violation.describe())

# c[1,2] = 2 but c[2,1] = 0.4 (should be 0.5): NonReciprocal.
# c[3,2] = 2/5 is given but c[2,3] is missing: AsymmetricMissingness.
# One-sided gaps are usually recording mistakes; repair fills them with the
# reciprocal of the present side.
repaired = repair_reciprocal(messy)
print("\nafter repair:", [v.kind for v in validate(repaired).violations])

# --- connectivity --------------------------------------------------------
# Start from a complete 6-alternative matrix with noisy judgments and delete
# comparisons one at a time.  The ranking exists (and shifts slightly) as
# long as the comparison graph stays in one piece.
rng = np.random.default_rng(3)
n = 6
v = np.exp(rng.uniform(-1, 1, size=n))
values = np.ones((n, n))
for i in range(n):
    for j in range(i + 1, n):
        noisy = (v[i] / v[j]) * np.exp(rng.normal(scale=0.2))
        values[i, j] = noisy
        values[j, i] = 1 / noisy

pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
rng.shuffle(pairs)

print("\ndeleting comparisons from a complete 6x6 matrix:")
m = PCMatrix(values)
for count, (i, j) in enumerate(pairs, start=1):
    w = values.copy()
    w[i, j] = w[j, i] = np.nan
    values = w
    m = PCMatrix(values)
    adj = graph_of(m)
    if not is_connected(adj):
        parts = connected_components(adj)
        print(f"  after deleting {count} pairs: DISCONNECTED, components {parts}")
        break
    weights = rank_gm(m).weights
    print(f"  after deleting {count} pairs: still connected, weights "
          + " ".join(f"{x:.3f}" for x in weights))

# Ranking a disconnected matrix raises rather than returning nonsense:
try:
    rank_gm(m)
except DisconnectedGraphError as e:
    print("\nranking refused:", e)
