"""Behavior matrix of a tree set and its exact pivot factorization.

Rows are trees, columns are the behavior sequences seen anywhere in the set,
entries mark which tree realizes which sequence.  Gauss-Jordan elimination in
rational arithmetic factors P = F x U with zero rounding error; the pivot
columns name the representative behavioral features.
"""

from fractions import Fraction

from ididiv import PolicyTree, build_matrix, extract_features, matrix_to_csv, pivot_decompose


def two_obs(action, left=None, right=None):
    """The tree with root ``action`` and subtrees ``left`` (after o1) and
    ``right`` (after o2): its preorder row is the root, then each subtree's."""
    if left is None:
        return PolicyTree((action,))
    return PolicyTree((action,) + left.preorder + right.preorder, ("o1", "o2"))


trees = [
    two_obs("A", two_obs("A"), two_obs("A")),
    two_obs("A", two_obs("A"), two_obs("B")),
    two_obs("B", two_obs("A"), two_obs("A")),
]

matrix = build_matrix(trees)
print(matrix_to_csv(matrix))

piv = pivot_decompose(matrix)
print("rank:", piv.rank)
print("pivot columns (1-indexed):", tuple(i + 1 for i in piv.pivot_indices))
print("features:", [s.compact() for s in piv.pivot_sequences])
print()

print("F =")
for row in piv.f_matrix:
    print("  ", list(int(x) for x in row))
print("U =")
for row in piv.u_matrix:
    print("  ", [str(x) for x in row])

# Recompute P from the factors exactly.
rows, cols = len(matrix.row_ids), len(matrix.columns)
product = [[Fraction(0)] * cols for _ in range(rows)]
for i in range(rows):
    for k in range(piv.rank):
        if piv.f_matrix[i, k]:
            for c in range(cols):
                product[i][c] += int(piv.f_matrix[i, k]) * piv.u_matrix[k][c]
exact = product == [[Fraction(int(x)) for x in row] for row in matrix.entries]
print()
print("P = F x U holds exactly:", exact)
print("feature anchors:", [s.compact() for s in extract_features(trees)])
