"""Exact finite-horizon solving over reachable beliefs.

solve_exact does backward induction on the reachable belief tree and returns
a complete policy tree.  brute_force_solve enumerates every complete tree and
keeps the best; it exists as an oracle for the recursive solver and refuses
to run past an explicit cap.  In both, a later action or tree replaces the
best so far only when its value q exceeds the best's by more than
``TIE_TOL * max(1, |best|)``, so ties that rounding could break either way
go to the earlier action in the declared order.  Both skip observation
branches whose probability is exactly zero, so they agree on the returned
tree, not just its value.

A model is read through three methods only (``Model``): the expected
reward of an action at a belief, the predicted belief after an action, and
the probability of an observation with the posterior it leaves.  A belief is
whatever the model's ``initial_belief`` and those methods pass around: a
dense vector for ``domains.SingleAgentModel``, a sparse (keys, vals) pair
for ``flattening.FlatModel``.  Both models sum rewards and observation
probabilities with ``np.add.reduce`` of an elementwise product, and
``FlatModel.predict`` sums in a fixed order, so the flattened solve does not
depend on the BLAS thread count.  ``SingleAgentModel.predict`` is the BLAS
product ``b @ T[:, a, :]``.

solve_exact, brute_force_solve and evaluate_policy run one recursion, which
either picks the best action at each belief or follows a given tree, so the
value reported for a solved tree is bit-identical to evaluating that tree.
Picking returns each subtree as its preorder action row, an immutable
tuple, and the root's row is the solved ``PolicyTree``.  Following reads a
tree's preorder row through its ``trees.node_table``, so brute_force_solve
makes a tree only of the winning row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Protocol

import numpy as np

from .trees import PolicyTree, count_tree_nodes, count_trees, node_table, validate_tree

__all__ = [
    "TIE_TOL",
    "Model",
    "EnumerationCapError",
    "SolvedPolicy",
    "solve_exact",
    "brute_force_solve",
    "evaluate_policy",
]


# Relative margin by which a later action or tree must beat the best so far.
TIE_TOL = 1e-9


def _beats(q: float, best: float) -> bool:
    return q > best + TIE_TOL * max(1.0, abs(best))


class EnumerationCapError(RuntimeError):
    """Brute-force enumeration would exceed the requested tree cap."""


class Model(Protocol):
    """What the solver and the tree sampler read of a model.

    ``solve_exact`` takes a level-0 ``SingleAgentModel`` or a flattened
    ``FlatModel``; ``generation.sample_tree`` takes the level-0 model itself.
    """

    name: str
    actions: tuple[str, ...]
    observations: tuple[str, ...]
    initial_belief: Any
    horizon: int

    def expected_reward(self, b, a: int) -> float:
        """Sum over states of b times the reward of action a."""

    def predict(self, b, a: int):
        """The belief after action a from b, before observing."""

    def condition(self, pred, a: int, o: int) -> tuple[float, Any]:
        """Pr(o) under ``pred`` after action a, and the posterior, or None
        when that probability is zero."""


@dataclass(frozen=True)
class SolvedPolicy:
    tree: PolicyTree
    value: float
    model_name: str
    horizon: int


def _backup(
    model: Model,
    b,
    remaining: int,
    follow: tuple[tuple[str, ...], np.ndarray] | None = None,
    v: int = 0,
) -> tuple[float, tuple[str, ...] | None]:
    """Value and preorder action row of the remaining decisions from belief b.

    With no ``follow`` every action is tried and the first wins unless a
    later one ``_beats`` it; observation branches that cannot occur get a
    filler row repeating the first action.  With ``follow``, a tree's
    preorder row and its node table's children, only the action of node v
    is tried, each branch follows v's child, and no row is returned.
    """
    n_obs = len(model.observations)
    if follow is None:
        choices = range(len(model.actions))
    else:
        choices = (model.actions.index(follow[0][v]),)
    best_v = -np.inf
    best: tuple[int, list] | None = None
    for a in choices:
        q = model.expected_reward(b, a)
        kids: list[tuple[str, ...] | None] = []
        if remaining > 1:
            pred = model.predict(b, a)
            for o in range(n_obs):
                p, post = model.condition(pred, a, o)
                if post is not None:
                    w = 0 if follow is None else follow[1][v, o]
                    val, sub = _backup(model, post, remaining - 1, follow, w)
                    q += p * val
                    kids.append(sub)
                else:
                    kids.append(None)
        if best is None or _beats(q, best_v):
            best_v, best = q, (a, kids)
    assert best is not None
    if follow is not None:
        return best_v, None
    a, kids = best
    row = (model.actions[a],)
    for sub in kids:
        if sub is None:
            sub = (model.actions[0],) * count_tree_nodes(n_obs, remaining - 1)
        row += sub
    return best_v, row


def solve_exact(model: Model) -> SolvedPolicy:
    """Optimal complete policy tree for the model's horizon.

    Backward induction over the beliefs reachable from the initial belief.
    Near ties (``TIE_TOL``) prefer the earlier declared action; observation
    branches that cannot occur are filled with subtrees repeating the first
    action.
    """
    v, row = _backup(model, model.initial_belief, model.horizon)
    tree = PolicyTree(row, model.observations)
    return SolvedPolicy(tree=tree, value=v, model_name=model.name, horizon=model.horizon)


def evaluate_policy(model: Model, tree: PolicyTree) -> float:
    """Expected cumulative reward of a complete tree from the initial belief.

    The tree must have the model's horizon as depth and branch on the
    model's observation alphabet.  For another belief, evaluate
    ``model.replace(initial_belief=...)`` with a belief in the model's own
    form: a dense vector for a SingleAgentModel, an ascending (keys, vals)
    pair of augmented indices and probabilities for a FlatModel.
    """
    validate_tree(tree, model.observations, depth=model.horizon, actions=model.actions)
    kids = node_table(len(model.observations), model.horizon).children
    return _backup(model, model.initial_belief, model.horizon, (tree.preorder, kids))[0]


def brute_force_solve(
    model: Model, max_trees: int = 200_000
) -> SolvedPolicy:
    """Enumerate every complete tree and keep the best.

    Near ties (``TIE_TOL``) keep the lexicographically earlier tree
    (preorder, declared action order, as ``trees.all_trees`` lists them),
    which is the same tree solve_exact constructs.  Raises
    EnumerationCapError when the tree count exceeds ``max_trees``.
    """
    n_obs, T = len(model.observations), model.horizon
    n = count_trees(len(model.actions), n_obs, T)
    if n > max_trees:
        raise EnumerationCapError(
            "%d complete trees exceed the enumeration cap of %d" % (n, max_trees)
        )
    kids = node_table(n_obs, T).children
    best_v, best = -np.inf, None
    for row in itertools.product(model.actions, repeat=count_tree_nodes(n_obs, T)):
        v = _backup(model, model.initial_belief, T, (row, kids))[0]
        if best is None or _beats(v, best_v):
            best_v, best = v, row
    tree = PolicyTree(best, model.observations)
    return SolvedPolicy(tree=tree, value=best_v, model_name=model.name, horizon=T)
