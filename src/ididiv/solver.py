"""Exact finite-horizon solving over reachable beliefs.

solve_exact does backward induction on the reachable belief tree and returns
a complete policy tree.  brute_force_solve enumerates every complete tree and
keeps the best; it exists as an oracle for the recursive solver and refuses
to run past an explicit cap.  Both break ties toward the earlier action in
the declared order, and both skip observation branches whose probability is
exactly zero, so they agree on the returned tree, not just its value.

solve_exact, brute_force_solve and evaluate_policy run one recursion, which
either picks the best action at each belief or follows a given tree, so the
value reported for a solved tree is bit-identical to evaluating that tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import SingleAgentModel
from .trees import (
    PolicyTree,
    all_trees,
    constant_tree,
    count_trees,
    validate_tree,
)

__all__ = [
    "ImpossibleObservationError",
    "EnumerationCapError",
    "SolvedPolicy",
    "belief_update",
    "observation_probability",
    "solve_exact",
    "brute_force_solve",
    "evaluate_policy",
]


class ImpossibleObservationError(ValueError):
    """Conditioning on an observation whose predicted probability is zero."""


class EnumerationCapError(RuntimeError):
    """Brute-force enumeration would exceed the requested tree cap."""


@dataclass(frozen=True)
class SolvedPolicy:
    tree: PolicyTree
    value: float
    model_name: str
    horizon: int


def _condition(
    model: SingleAgentModel, pred: np.ndarray, a: int, o: int
) -> tuple[float, np.ndarray | None]:
    """Pr(o) under the predicted belief ``b @ T_a``, and the posterior.

    The posterior is None when the observation has probability zero.
    """
    like = model.obs_fn[:, a, o]
    p = float(pred @ like)
    return p, ((pred * like) / p if p > 0.0 else None)


def observation_probability(
    model: SingleAgentModel, belief: np.ndarray, action: str, observation: str
) -> float:
    """Pr(observation | belief, action) one step ahead."""
    a = model.actions.index(action)
    o = model.observations.index(observation)
    pred = np.asarray(belief, dtype=float) @ model.transition_matrix(a)
    return _condition(model, pred, a, o)[0]


def belief_update(
    model: SingleAgentModel, belief: np.ndarray, action: str, observation: str
) -> np.ndarray:
    """Bayes posterior over states after acting and observing.

    Raises ImpossibleObservationError when the observation has probability
    zero under the predicted state distribution.
    """
    a = model.actions.index(action)
    o = model.observations.index(observation)
    pred = np.asarray(belief, dtype=float) @ model.transition_matrix(a)
    post = _condition(model, pred, a, o)[1]
    if post is None:
        raise ImpossibleObservationError(
            "observation %r has probability 0 after action %r" % (observation, action)
        )
    return post


def _backup(
    model: SingleAgentModel,
    b: np.ndarray,
    remaining: int,
    node: PolicyTree | None = None,
) -> tuple[float, PolicyTree]:
    """Value and tree of the remaining decisions from belief b.

    With no ``node`` every action is tried and the strict first maximum
    wins; observation branches that cannot occur get a filler subtree
    repeating the first action.  With a ``node`` only its action is tried,
    each branch follows the node's child, and the node itself is returned.
    """
    n_obs = len(model.observations)
    if node is None:
        choices = range(len(model.actions))
    else:
        choices = (model.actions.index(node.action),)
    best_v = -np.inf
    best: tuple[int, list[PolicyTree | None]] | None = None
    for a in choices:
        q = float(b @ model.reward[:, a])
        kids: list[PolicyTree | None] = []
        if remaining > 1:
            pred = b @ model.transition_matrix(a)
            for o in range(n_obs):
                p, post = _condition(model, pred, a, o)
                if post is not None:
                    follow = None if node is None else node.children[o][1]
                    v, sub = _backup(model, post, remaining - 1, follow)
                    q += p * v
                    kids.append(sub)
                else:
                    kids.append(None)
        if best is None or q > best_v:
            best_v, best = q, (a, kids)
    assert best is not None
    if node is not None:
        return best_v, node
    a, kids = best
    if remaining == 1:
        return best_v, PolicyTree(model.actions[a])
    filler = constant_tree(model.actions[0], model.observations, remaining - 1)
    children = tuple(
        (model.observations[o], filler if kids[o] is None else kids[o])
        for o in range(n_obs)
    )
    return best_v, PolicyTree(model.actions[a], children)


def solve_exact(model: SingleAgentModel) -> SolvedPolicy:
    """Optimal complete policy tree for the model's horizon.

    Backward induction over the beliefs reachable from the initial belief.
    Ties prefer the earlier declared action; observation branches that
    cannot occur are filled with subtrees repeating the first action.
    """
    v, tree = _backup(model, model.initial_belief, model.horizon)
    return SolvedPolicy(tree=tree, value=v, model_name=model.name, horizon=model.horizon)


def evaluate_policy(model: SingleAgentModel, tree: PolicyTree) -> float:
    """Expected cumulative reward of a complete tree from the initial belief.

    The tree must have the model's horizon as depth and branch on the
    model's observation alphabet.  For another belief, evaluate
    ``model.replace(initial_belief=...)``.
    """
    validate_tree(tree, model.observations, depth=model.horizon, actions=model.actions)
    return _backup(model, model.initial_belief, model.horizon, tree)[0]


def brute_force_solve(
    model: SingleAgentModel, max_trees: int = 200_000
) -> SolvedPolicy:
    """Enumerate every complete tree and keep the best.

    Ties keep the lexicographically earlier tree (preorder, declared action
    order), which is the same tree solve_exact constructs.  Raises
    EnumerationCapError when the tree count exceeds ``max_trees``.
    """
    n = count_trees(len(model.actions), len(model.observations), model.horizon)
    if n > max_trees:
        raise EnumerationCapError(
            "%d complete trees exceed the enumeration cap of %d" % (n, max_trees)
        )
    best_v = -np.inf
    best_tree: PolicyTree | None = None
    for tree in all_trees(model.actions, model.observations, model.horizon):
        v = _backup(model, model.initial_belief, model.horizon, tree)[0]
        if best_tree is None or v > best_v:
            best_v = v
            best_tree = tree
    assert best_tree is not None
    return SolvedPolicy(
        tree=best_tree, value=best_v, model_name=model.name, horizon=model.horizon
    )
