"""Generating candidate policy trees from the peer's level-0 model.

Trees are grown anchored on feature behavior sequences: along the anchor's
observation path the anchored actions are copied verbatim, everywhere else
the action maximizes the immediate expected reward under the current belief.
The root belief is a symmetric Dirichlet draw.  Beliefs advance by Bayes
updates through the model's ``predict`` and ``condition``; an observation
branch with zero probability falls back to the unconditioned predicted
belief so the grown tree stays complete.  A grown tree is its preorder
action row; callers compare rows and build a tree only for a kept draw.
"""

from __future__ import annotations

import numpy as np

from .domains import SingleAgentModel
from .solver import _beats, solve_exact
# canonical_encode is unused here; perfbench/tracer.py binds generation.canonical_encode.
from .trees import BehaviorSequence, PolicyTree, canonical_encode, count_trees  # noqa: F401

__all__ = [
    "convert_to_dbn",
    "sample_tree",
    "generate_known_models",
]


def convert_to_dbn(model: SingleAgentModel) -> SingleAgentModel:
    """The model itself.  It stays only because the benchmark's tracer binds
    this name in ``selection`` and ``simulate``."""
    return model


def _myopic_action(model: SingleAgentModel, b: np.ndarray) -> int:
    # The same sums and tie rule as the solver.
    best_a, best_q = 0, -np.inf
    for a in range(len(model.actions)):
        q = model.expected_reward(b, a)
        if a == 0 or _beats(q, best_q):
            best_a, best_q = a, q
    return best_a


def _grow(model, anchor, b: np.ndarray, depth: int, on_anchor: bool, row: list[str]) -> None:
    """Append the preorder row of the subtree at ``depth`` under belief b
    to ``row``; see ``sample_tree``."""
    if on_anchor:
        a_sym = anchor.actions[depth]
        a = model.actions.index(a_sym)
    else:
        a = _myopic_action(model, b)
        a_sym = model.actions[a]
    row.append(a_sym)
    if depth + 1 == model.horizon:
        return
    pred = model.predict(b, a)
    for o, o_sym in enumerate(model.observations):
        post = model.condition(pred, a, o)[1]
        nb = pred if post is None else post  # impossible branch: keep the prediction
        keep = on_anchor and anchor.observations[depth] == o_sym
        _grow(model, anchor, nb, depth + 1, keep, row)


def sample_tree(
    model: SingleAgentModel,
    anchor: BehaviorSequence,
    rng: np.random.Generator,
) -> tuple[str, ...]:
    """Grow one complete tree anchored on a feature behavior sequence and
    return its preorder action row: ``PolicyTree(row, model.observations)``
    is the tree.

    Nodes on the anchor's observation path copy the anchor's actions; all
    other nodes act myopically under the propagated belief.  The root belief
    is a symmetric Dirichlet draw from ``rng``.
    """
    T = model.horizon
    if anchor.length != T:
        raise ValueError(
            "anchor length %d does not match horizon %d" % (anchor.length, T)
        )
    for a in anchor.actions:
        if a not in model.actions:
            raise ValueError("anchor action %r not in model actions" % a)
    for o in anchor.observations:
        if o not in model.observations:
            raise ValueError("anchor observation %r not in model observations" % o)
    row: list[str] = []
    _grow(model, anchor, rng.dirichlet(np.ones(len(model.states))), 0, True, row)
    return tuple(row)


def generate_known_models(
    model: SingleAgentModel,
    count: int,
    seed=0,
) -> list[PolicyTree]:
    """``count`` distinct optimal trees from random initial beliefs.

    Each attempt draws a Dirichlet(1) belief, solves the model exactly, and
    keeps the tree if unseen.  Raises RuntimeError, before solving anything,
    when ``count`` exceeds the number of complete trees, and otherwise when
    ``40 * count + 20`` attempts pass before enough distinct optima appear.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n_trees = count_trees(len(model.actions), len(model.observations), model.horizon)
    if count > n_trees:
        raise RuntimeError(
            "cannot find %d distinct optimal trees: only %d complete trees exist"
            % (count, n_trees)
        )
    rng = np.random.default_rng(seed)
    cap = 40 * count + 20
    out: list[PolicyTree] = []
    seen: set[tuple[str, ...]] = set()
    for _ in range(cap):
        b = rng.dirichlet(np.ones(len(model.states)))
        pol = solve_exact(model.replace(initial_belief=b))
        if pol.tree.preorder not in seen:
            seen.add(pol.tree.preorder)
            out.append(pol.tree)
            if len(out) == count:
                return out
    raise RuntimeError(
        "found %d distinct optimal trees in %d attempts, needed %d"
        % (len(out), cap, count)
    )
