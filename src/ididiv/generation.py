"""Generating candidate policy trees from a behavioral model.

The model's decision nodes are converted to chance-node form: per state, the
action utilities are shifted positive and normalized into a distribution
(``action_weights``).  Trees are then grown anchored on feature behavior
sequences: along the anchor's observation path the anchored actions are
copied verbatim, everywhere else the action maximizes the immediate expected
reward under the current belief.  Beliefs advance by Bayes updates; an
observation branch with zero probability falls back to the unconditioned
predicted belief so the grown tree stays complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domains import SingleAgentModel
from .solver import _condition, solve_exact
from .trees import BehaviorSequence, PolicyTree, canonical_encode, count_trees

__all__ = [
    "DynamicBeliefNet",
    "convert_to_dbn",
    "sample_tree",
    "generate_known_models",
]


@dataclass(frozen=True, eq=False)
class DynamicBeliefNet:
    """A model with reward-derived action distributions per state.

    ``action_weights[s, a]`` is proportional to reward[s, a] - min(reward)
    + epsilon and each state's row sums to one.
    """

    base: SingleAgentModel
    action_weights: np.ndarray
    epsilon: float

    def __post_init__(self) -> None:
        w = np.asarray(self.action_weights, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "action_weights", w)


def convert_to_dbn(model: SingleAgentModel, epsilon: float = 1e-6) -> DynamicBeliefNet:
    """Turn the reward table into per-state action distributions.

    A constant reward table yields uniform weights.  epsilon must be
    positive so every action keeps nonzero mass.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive, got %g" % epsilon)
    shifted = model.reward - model.reward.min() + epsilon
    weights = shifted / shifted.sum(axis=1, keepdims=True)
    return DynamicBeliefNet(base=model, action_weights=weights, epsilon=epsilon)


def _myopic_action(model: SingleAgentModel, b: np.ndarray) -> int:
    # Strict first-max, same tie policy as the solver.
    best_a, best_q = 0, -np.inf
    for a in range(len(model.actions)):
        q = float(b @ model.reward[:, a])
        if q > best_q:
            best_a, best_q = a, q
    return best_a


def _grow(
    model: SingleAgentModel,
    anchor: BehaviorSequence,
    b: np.ndarray,
    depth: int,
    on_anchor: bool,
) -> PolicyTree:
    """The subtree at ``depth`` under belief b; see ``sample_tree``."""
    if on_anchor:
        a_sym = anchor.actions[depth]
        a = model.actions.index(a_sym)
    else:
        a = _myopic_action(model, b)
        a_sym = model.actions[a]
    if depth + 1 == model.horizon:
        return PolicyTree(a_sym)
    pred = b @ model.transition_matrix(a)
    kids = []
    for o, o_sym in enumerate(model.observations):
        post = _condition(model, pred, a, o)[1]
        nb = pred if post is None else post  # impossible branch: keep the prediction
        keep = on_anchor and anchor.observations[depth] == o_sym
        kids.append((o_sym, _grow(model, anchor, nb, depth + 1, keep)))
    return PolicyTree(a_sym, tuple(kids))


def sample_tree(
    dbn: DynamicBeliefNet,
    anchors: Sequence[BehaviorSequence],
    rng: np.random.Generator,
    initial_belief: np.ndarray | None = None,
) -> PolicyTree:
    """Grow one complete tree anchored on a feature behavior sequence.

    One anchor is drawn when several are given.  Nodes on the anchor's
    observation path copy the anchor's actions; all other nodes act
    myopically under the propagated belief.  The root belief defaults to a
    symmetric Dirichlet draw.
    """
    model = dbn.base
    T = model.horizon
    if not anchors:
        raise ValueError("need at least one anchor sequence")
    for s in anchors:
        if s.length != T:
            raise ValueError(
                "anchor length %d does not match horizon %d" % (s.length, T)
            )
        for a in s.actions:
            if a not in model.actions:
                raise ValueError("anchor action %r not in model actions" % a)
        for o in s.observations:
            if o not in model.observations:
                raise ValueError("anchor observation %r not in model observations" % o)

    if len(anchors) == 1:
        anchor = anchors[0]
    else:
        anchor = anchors[int(rng.integers(len(anchors)))]

    if initial_belief is None:
        b0 = rng.dirichlet(np.ones(len(model.states)))
    else:
        b0 = np.asarray(initial_belief, dtype=float)
    return _grow(model, anchor, b0, 0, True)


def generate_known_models(
    model: SingleAgentModel,
    count: int,
    seed=0,
    max_attempts: int | None = None,
) -> list[PolicyTree]:
    """``count`` distinct optimal trees from random initial beliefs.

    Each attempt draws a Dirichlet(1) belief, solves the model exactly, and
    keeps the tree if unseen.  Raises RuntimeError, before solving anything,
    when ``count`` exceeds the number of complete trees, and otherwise when
    the attempt budget runs out before enough distinct optima appear.
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
    cap = max_attempts if max_attempts is not None else 40 * count + 20
    out: list[PolicyTree] = []
    seen: set[str] = set()
    for _ in range(cap):
        b = rng.dirichlet(np.ones(len(model.states)))
        pol = solve_exact(model.replace(initial_belief=b))
        enc = canonical_encode(pol.tree)
        if enc not in seen:
            seen.add(enc)
            out.append(pol.tree)
            if len(out) == count:
                return out
    raise RuntimeError(
        "found %d distinct optimal trees in %d attempts, needed %d"
        % (len(out), cap, count)
    )
