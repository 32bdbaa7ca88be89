"""Behavior matrices and pivot features.

A set of complete policy trees induces a 0/1 matrix P: one row per tree, one
column per distinct full-length behavior sequence, in first-appearance order
(trees scanned in the given order, each tree's leaves in preorder).  Columns
are found from the set's prefix ids at the leaves (``trees.prefix_ids``), so
each distinct sequence is built once.
Exact Gauss-Jordan elimination yields P = F x U where U holds the top
``rank`` rows of the reduced row echelon form and F is P restricted to the
pivot columns.  The pivot columns' sequences are the
feature behaviors: a minimal spanning subset of the observed behavior.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .trees import BehaviorSequence, PolicyTree, _csv_text, prefix_ids, sequence_at

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "BehaviorMatrix",
    "PivotResult",
    "build_matrix",
    "pivot_decompose",
    "extract_features",
    "matrix_to_csv",
]


@dataclass(frozen=True, eq=False)
class BehaviorMatrix:
    """0/1 incidence of trees (rows) against behavior sequences (columns)."""

    row_ids: tuple[str, ...]
    columns: tuple[BehaviorSequence, ...]
    entries: np.ndarray

    def __post_init__(self) -> None:
        ent = np.asarray(self.entries, dtype=np.uint8)
        if ent.ndim != 2 or ent.shape != (len(self.row_ids), len(self.columns)):
            raise ValueError(
                "entries shape %r does not match %d rows x %d columns"
                % (ent.shape, len(self.row_ids), len(self.columns))
            )
        if ent.size and ent.max() > 1:
            raise ValueError("entries must be 0/1")
        if len(set(self.row_ids)) != len(self.row_ids):
            raise ValueError("duplicate row identifiers")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate sequence columns")
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)


@dataclass(frozen=True, eq=False)
class PivotResult:
    """Exact decomposition P = F x U with pivot bookkeeping.

    ``f_matrix`` is the integer pivot-column restriction of the behavior
    matrix.  U is held as integer rows: row k of U is ``u_rows[k]`` divided
    by its entry at ``pivot_indices[k]``.  ``u_matrix`` gives U's rows as
    Fraction tuples, formed when it is first read.  ``rank`` is the pivot
    count.
    """

    pivot_indices: tuple[int, ...]
    pivot_sequences: tuple[BehaviorSequence, ...]
    f_matrix: np.ndarray
    u_rows: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.pivot_indices)

    @functools.cached_property
    def u_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        # Imported here, the one place that uses it: no pipeline path reads U.
        from fractions import Fraction
        return tuple(
            tuple(Fraction(v, row[c]) for v in row)
            for row, c in zip(self.u_rows, self.pivot_indices)
        )


def build_matrix(trees: Sequence[PolicyTree]) -> BehaviorMatrix:
    """Incidence matrix of the trees over their distinct full sequences.

    Rows are named tree1..treeN in the given order.  Column order is first
    appearance: trees in the given order, sequences within a tree in preorder
    of their leaves.  The trees must share one depth and one observation
    alphabet.
    """
    trees = list(trees)
    if not trees:
        raise ValueError("need at least one tree")
    table, pids = prefix_ids(trees)
    ids = tuple("tree%d" % (k + 1) for k in range(len(trees)))

    leaves = np.flatnonzero(table.level == trees[0].depth - 1)
    leaf_ids = pids[:, leaves].tolist()
    index: dict[int, int] = {}
    columns: list[BehaviorSequence] = []
    for tree, row in zip(trees, leaf_ids):
        for leaf, pid in zip(leaves, row):
            if pid not in index:
                index[pid] = len(columns)
                columns.append(sequence_at(tree, leaf))

    entries = np.zeros((len(trees), len(columns)), dtype=np.uint8)
    for r, row in enumerate(leaf_ids):
        entries[r, [index[pid] for pid in row]] = 1
    return BehaviorMatrix(row_ids=ids, columns=tuple(columns), entries=entries)


def pivot_decompose(matrix: BehaviorMatrix) -> PivotResult:
    """Exact Gauss-Jordan elimination with leftmost-pivot order.

    Returns the rank, the pivot column positions, F = P[:, pivots], and the
    first ``rank`` rows of rref(P) as U.  The elimination is fraction-free on
    Python ints, each row a nonzero multiple of the rational one, so U's
    Fractions are formed only when ``u_matrix`` is first read.  F x U equals
    P exactly; this identity is re-checked in integer arithmetic before
    returning.
    """
    ent = matrix.entries
    nrows, ncols = ent.shape
    rows: list[list[int]] = ent.tolist()

    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((k for k in range(r, nrows) if rows[k][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        p = rows[r][c]
        for k in range(nrows):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                row = [p * a - f * b for a, b in zip(rows[k], rows[r])]
                g = math.gcd(*row)
                rows[k] = [v // g for v in row] if g > 1 else row
        pivots.append(c)
        r += 1

    rank = len(pivots)
    heads = [rows[k][c] for k, c in enumerate(pivots)]
    f_matrix = ent[:, pivots].astype(np.int64)

    # P = F x U must hold exactly; the pivot submatrix of U is the identity.
    # F is P on the pivot columns, so 0/1: row i of F x U sums the U rows
    # that F[i] selects, each scaled by lcm / head to clear denominators.
    for i in range(nrows):
        picked = [k for k in range(rank) if f_matrix[i, k]]
        lcm = math.lcm(*(heads[k] for k in picked))
        scaled = [(rows[k], lcm // heads[k]) for k in picked]
        for c in range(ncols):
            if sum(row[c] * m for row, m in scaled) != int(ent[i, c]) * lcm:
                raise RuntimeError("decomposition mismatch at entry (%d, %d)" % (i, c))

    return PivotResult(
        pivot_indices=tuple(pivots),
        pivot_sequences=tuple(matrix.columns[c] for c in pivots),
        f_matrix=f_matrix,
        u_rows=tuple(map(tuple, rows[:rank])),
    )


def extract_features(trees: Sequence[PolicyTree]) -> tuple[BehaviorSequence, ...]:
    """The pivot-column behavior sequences of the trees' behavior matrix."""
    return pivot_decompose(build_matrix(trees)).pivot_sequences


def matrix_to_csv(matrix: BehaviorMatrix) -> str:
    """CSV dump: header of compact sequence encodings, one row per tree."""
    rows = [(rid, *row) for rid, row in zip(matrix.row_ids, matrix.entries.tolist())]
    return _csv_text(["tree", *(c.compact() for c in matrix.columns)], rows)
