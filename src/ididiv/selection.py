"""Greedy accumulation of a diverse candidate model set.

Starting from the known trees, feature behavior sequences are extracted and
used as anchors to sample new trees; a sample joins the set only when it
strictly increases the chosen diversity measure.  The loop stops at the set
size cap or after ``patience`` consecutive non-improving samples.
"""

from __future__ import annotations

import numbers
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .diversity import DiversityReport, diversity_report, mdf, mdp
from .domains import SingleAgentModel
from .features import extract_features
# convert_to_dbn is unused here; perfbench/tracer.py binds selection.convert_to_dbn.
from .generation import convert_to_dbn, sample_tree  # noqa: F401
from .trees import (
    PolicyTree, _as_written, _check_keys, _count, _integer, _json_text, _read_input,
    canonical_encode, canonical_parse, validate_tree,
)

__all__ = [
    "MEASURES",
    "SelectionConfig",
    "CandidateModelSet",
    "make_candidate_set",
    "select_topk",
    "save_candidate_set",
    "load_candidate_set",
    "candidate_set_from_obj",
]

MEASURES = {"MDP": mdp, "MDF": mdf}
_CANDIDATE_KINDS = dict(trees=list, prior=None, provenance=list, n_observations=None,
                        measure=None, trace=list)
# The most consecutive rejected draws a selection waits through.  A draw
# took 0.04-1.5 ms (tiger T=2-3, uav T=3-4, on a 2-vCPU VM), so 10,000 of
# them take 0.4-15 s.
MAX_PATIENCE = 10_000


@dataclass(frozen=True)
class SelectionConfig:
    measure: str = "MDF"
    k_max: int = 10
    patience: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.measure not in MEASURES:
            raise ValueError(
                "measure must be one of %s, got %r"
                % (", ".join(sorted(MEASURES)), self.measure)
            )
        _count("k_max", self.k_max)
        _count("patience", self.patience, MAX_PATIENCE)


@dataclass(frozen=True, eq=False)
class CandidateModelSet:
    """Distinct complete trees with a prior and per-tree provenance.

    ``provenance`` entries are "known" or "generated", all "known" by
    default, and ``prior`` is a read-only copy of the one given, uniform by
    default.  ``report`` is the trees' diversity report over
    ``n_observations`` symbols.  ``trace`` records (set size, diversity
    value) after the initial set and after each accepted addition, for the
    measure that drove selection (empty when no selection ran).
    """

    trees: tuple[PolicyTree, ...]
    n_observations: InitVar[int]
    provenance: tuple[str, ...] | None = None
    prior: np.ndarray | None = None
    measure: str | None = None
    trace: tuple[tuple[int, float], ...] = ()
    report: DiversityReport = field(init=False)

    def __post_init__(self, n_observations) -> None:
        trees = tuple(self.trees)
        # First, so that a bad n_observations is named even with no trees.
        object.__setattr__(self, "report", diversity_report(trees, n_observations))
        if not trees:
            raise ValueError("candidate set cannot be empty")
        provenance = ("known",) * len(trees) if self.provenance is None else tuple(self.provenance)
        if len(provenance) != len(trees):
            raise ValueError("provenance length does not match trees")
        for p in provenance:
            if p not in ("known", "generated"):
                raise ValueError("provenance entries must be known/generated")
        if len(set(trees)) != len(trees):
            raise ValueError("duplicate trees in candidate set")
        if self.prior is None:
            prior = np.full(len(trees), 1.0 / len(trees))
        else:
            prior = np.array(self.prior, dtype=float)
        if prior.shape != (len(trees),):
            raise ValueError("prior shape %r for %d trees" % (prior.shape, len(trees)))
        # Written so that a NaN entry fails too.
        if not (prior.min() >= 0.0 and abs(float(prior.sum()) - 1.0) <= 1e-12):
            raise ValueError("prior must be a distribution over the trees")
        prior.setflags(write=False)
        object.__setattr__(self, "trees", trees)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "trace", tuple(self.trace))


make_candidate_set = CandidateModelSet


def select_topk(
    known: Sequence[PolicyTree],
    model: SingleAgentModel,
    config: SelectionConfig = SelectionConfig(),
) -> CandidateModelSet:
    """Expand the known trees with diversity-increasing sampled trees.

    The known trees are always retained (duplicates among them collapse),
    so a ``k_max`` below the number of distinct known trees raises
    ValueError before the first draw.
    Anchors are the feature sequences of the known set, cycled in order.  A
    sampled tree is accepted only when the configured measure strictly
    increases; the loop ends at ``k_max`` trees or after ``patience``
    consecutive rejections.  Deterministic for a fixed config.  Draws are
    compared as preorder rows, and only one not seen before becomes a tree.
    """
    measure_fn = MEASURES[config.measure]
    n_obs = len(model.observations)
    base = list(dict.fromkeys(known))  # equal trees collapse, in first-appearance order
    if not base:
        raise ValueError("need at least one known tree")
    if config.k_max < len(base):
        raise ValueError(
            "k_max %d is below the %d distinct known trees" % (config.k_max, len(base))
        )
    for t in base:
        validate_tree(t, model.observations, depth=model.horizon, actions=model.actions)

    anchors = extract_features(base)
    rng = np.random.default_rng(config.seed)

    trees = list(base)
    seen = {t.preorder for t in trees}
    current = measure_fn(trees, n_obs)
    trace: list[tuple[int, float]] = [(len(trees), current)]
    misses = 0
    draw = 0
    while len(trees) < config.k_max and misses < config.patience:
        row = sample_tree(model, anchors[draw % len(anchors)], rng)
        draw += 1
        if row in seen:
            misses += 1
            continue
        cand = PolicyTree(row, model.observations)
        value = measure_fn(trees + [cand], n_obs)
        if value > current:
            trees.append(cand)
            seen.add(row)
            current = value
            trace.append((len(trees), value))
            misses = 0
        else:
            misses += 1

    provenance = ("known",) * len(base) + ("generated",) * (len(trees) - len(base))
    return make_candidate_set(
        trees,
        n_obs,
        provenance=provenance,
        measure=config.measure,
        trace=trace,
    )


def save_candidate_set(cs: CandidateModelSet, path) -> Path:
    obj = {
        "trees": [canonical_encode(t) for t in cs.trees],
        "prior": [float(p) for p in cs.prior],
        "provenance": list(cs.provenance),
        "n_observations": cs.report.n_observations,
        "measure": cs.measure,
        "trace": [[int(k), float(v)] for k, v in cs.trace],
    }
    p = Path(path)
    p.write_text(_json_text(obj))
    return p


def load_candidate_set(path) -> CandidateModelSet:
    return _read_input(path, candidate_set_from_obj)[0]


def candidate_set_from_obj(obj) -> CandidateModelSet:
    """The candidate set a parsed candidate file describes.  Numbers are read
    as written: ``prior`` holds numbers, each ``trace`` entry is [integer,
    number], and ``measure`` is null, "MDP" or "MDF"."""
    _check_keys("candidate file", obj, _CANDIDATE_KINDS, ("trees", "n_observations"))
    if not all(isinstance(t, str) for t in obj["trees"]):
        raise ValueError("'trees' is a list of tree encodings")
    trace = []
    for entry in _as_written("trace", obj.get("trace", [])):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                and isinstance(entry[1], numbers.Real)):
            raise ValueError("trace: %r is not [integer, number]" % (entry,))
        trace.append((_integer("trace", entry[0]), float(entry[1])))
    prior = np.asarray(_as_written("prior", obj["prior"]), dtype=float) if "prior" in obj else None
    measure = obj.get("measure")
    if measure not in (None, *MEASURES):
        raise ValueError("measure: %r is not null, 'MDP' or 'MDF'" % (measure,))
    return make_candidate_set(
        [canonical_parse(t) for t in obj["trees"]],
        obj["n_observations"],
        provenance=obj.get("provenance"),
        prior=prior,
        measure=measure,
        trace=trace,
    )
