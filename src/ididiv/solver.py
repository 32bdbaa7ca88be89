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

A model is read through three methods only: the expected reward of an
action at a belief, the predicted belief after an action, and the
probability of an observation with the posterior it leaves.  A belief is
whatever the model's ``initial_belief`` and those methods pass around: a
dense vector for ``domains.SingleAgentModel``, a sparse (keys, vals) pair
for ``flattening.FlatModel``.  Both models sum in a fixed order with numpy
reductions over elementwise products, so no solve depends on BLAS.

solve_exact, brute_force_solve and evaluate_policy run one recursion, which
either picks the best action at each belief or follows a given tree, so the
value reported for a solved tree is bit-identical to evaluating that tree.
Picking returns each subtree as its preorder action row, an immutable
tuple, and the root's row is the solved ``PolicyTree``.  Following reads a
tree's preorder row through its ``trees.node_table``, so brute_force_solve
makes a tree only of the winning row.  ``generation.sample_tree`` picks its
off-anchor actions by ``_backup`` with one step left, so ``_beats`` is the
one place where actions or trees are compared.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .trees import PolicyTree, count_tree_nodes, count_trees, node_table, validate_tree

__all__ = [
    "TIE_TOL",
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


@dataclass(frozen=True)
class SolvedPolicy:
    tree: PolicyTree
    value: float


def _backup(
    model,
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


def solve_exact(model) -> SolvedPolicy:
    """Optimal complete policy tree for the model's horizon.

    Backward induction over the beliefs reachable from the initial belief.
    Near ties (``TIE_TOL``) prefer the earlier declared action; observation
    branches that cannot occur are filled with subtrees repeating the first
    action.
    """
    v, row = _backup(model, model.initial_belief, model.horizon)
    tree = PolicyTree(row, model.observations)
    return SolvedPolicy(tree=tree, value=v)


def evaluate_policy(model, tree: PolicyTree) -> float:
    """Expected cumulative reward of a complete tree from the initial belief.

    The tree must have the model's horizon as depth and branch on the
    model's observation alphabet.  For another belief, evaluate
    ``dataclasses.replace(model, initial_belief=...)`` with a belief in the
    model's own form, which the replace checks: a dense distribution over
    the states of a SingleAgentModel, or for a FlatModel a (keys, vals) pair
    of strictly ascending augmented indices and probabilities summing to 1.
    """
    validate_tree(tree, model.observations, depth=model.horizon, actions=model.actions)
    kids = node_table(len(model.observations), model.horizon).children
    return _backup(model, model.initial_belief, model.horizon, (tree.preorder, kids))[0]


def brute_force_solve(model, max_trees: int = 200_000) -> SolvedPolicy:
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
    return SolvedPolicy(tree=tree, value=best_v)
