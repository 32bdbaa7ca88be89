"""Diversity measures over sets of complete policy trees.

Two set functions, both normalized per depth by the branching factor:

* behavior-prefix diversity sums, over depths t, the number of distinct
  length-t behavior prefixes across the set, divided by n_obs**(t-1);
* the frame-augmented variant additionally counts distinct depth-t
  truncations (frames), thereby rewarding structural spread even when
  realized prefixes coincide.

Both are monotone under adding trees; the frame-augmented value is never
below the prefix-only value (it adds a nonnegative term per depth).

Every function reads ``_counts``, which works on the set's prefix ids
(``trees.prefix_ids``): the distinct length-t prefixes are the distinct ids
on level t-1, and the distinct depth-t frames are the distinct rows of
those ids.  The trees must share one depth and one observation alphabet of
the given size.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Sequence

# canonical_encode is unused here; perfbench/tracer.py binds diversity.canonical_encode.
from .trees import PolicyTree, _count, _csv_text, canonical_encode, prefix_ids  # noqa: F401

__all__ = [
    "mdp",
    "mdf",
    "DiversityReport",
    "diversity_report",
    "report_to_csv",
]


def _counts(
    trees: Sequence[PolicyTree], n_observations: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Distinct prefixes and distinct frames across the set, per depth 1..T."""
    table, ids = prefix_ids(trees)
    n_obs = table.children.shape[1]
    if n_obs and n_obs != n_observations:
        raise ValueError("trees branch on %d observations, not %d" % (n_obs, n_observations))
    levels = [ids[:, table.level == t] for t in range(trees[0].depth)]
    seq = tuple(len(set(lv.ravel().tolist())) for lv in levels)
    frm = tuple(len({row.tobytes() for row in lv}) for lv in levels)
    return seq, frm


def mdp(trees: Sequence[PolicyTree], n_observations: int) -> float:
    """Prefix diversity summed over depths, depth t scaled by n**-(t-1)."""
    return diversity_report(trees, n_observations).mdp_value


def mdf(trees: Sequence[PolicyTree], n_observations: int) -> float:
    """Prefix plus frame diversity, same per-depth scaling as mdp."""
    return diversity_report(trees, n_observations).mdf_value


@dataclass(frozen=True)
class DiversityReport:
    """Per-depth distinct counts plus both aggregate measures."""

    n_observations: int
    sequence_counts: tuple[int, ...]
    frame_counts: tuple[int, ...]
    mdp_value: float
    mdf_value: float


def _total(terms) -> float:
    # Left to right from 0.0, as sum() added before it compensated (3.12).
    return functools.reduce(operator.add, terms, 0.0)


def diversity_report(trees: Sequence[PolicyTree], n_observations: int) -> DiversityReport:
    n = _count("n_observations", n_observations)
    if not trees:
        return DiversityReport(n, (), (), 0.0, 0.0)
    seq, frm = _counts(trees, n)
    return DiversityReport(
        n_observations=n,
        sequence_counts=seq,
        frame_counts=frm,
        mdp_value=_total(s / n ** (t - 1) for t, s in enumerate(seq, start=1)),
        mdf_value=_total(
            (s + f) / n ** (t - 1) for t, (s, f) in enumerate(zip(seq, frm), start=1)
        ),
    )


def report_to_csv(report: DiversityReport) -> str:
    counts = zip(itertools.count(1), report.sequence_counts, report.frame_counts)
    totals = [("mdp", report.mdp_value, ""), ("mdf", report.mdf_value, "")]
    return _csv_text(("depth", "distinct_prefixes", "distinct_frames"), [*counts, *totals])
