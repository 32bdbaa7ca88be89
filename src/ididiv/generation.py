"""Generating candidate policy trees from a behavioral model.

Trees are grown anchored on feature behavior sequences: along the anchor's
observation path the anchored actions are copied verbatim, everywhere else
the action maximizes the immediate expected reward under the current belief.
The root belief is a symmetric Dirichlet draw.  Beliefs advance by Bayes
updates; an observation branch with zero probability falls back to the
unconditioned predicted belief so the grown tree stays complete.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import SingleAgentModel
from .solver import _beats, solve_exact
from .trees import BehaviorSequence, PolicyTree, canonical_encode, count_trees

__all__ = [
    "DynamicBeliefNet",
    "convert_to_dbn",
    "sample_tree",
    "generate_known_models",
]


@dataclass(frozen=True, eq=False)
class DynamicBeliefNet:
    """The level-0 model that ``sample_tree`` grows trees from.

    It adds nothing to ``base``.  It stays, with ``convert_to_dbn``, because
    the benchmark's tracer (``perfbench/tracer.py``) binds ``convert_to_dbn``
    by name in ``selection`` and ``simulate``; both can go, and the sampler
    take the model itself, once the tracer no longer pins that name.
    """

    base: SingleAgentModel


def convert_to_dbn(model: SingleAgentModel) -> DynamicBeliefNet:
    """Wrap the model for ``sample_tree``."""
    return DynamicBeliefNet(base=model)


def _myopic_action(model: SingleAgentModel, b: np.ndarray) -> int:
    # The same sums and tie rule as the solver.
    best_a, best_q = 0, -np.inf
    for a in range(len(model.actions)):
        q = model.expected_reward(b, a)
        if a == 0 or _beats(q, best_q):
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
    pred = model.predict(b, a)
    kids = []
    for o, o_sym in enumerate(model.observations):
        post = model.condition(pred, a, o)[1]
        nb = pred if post is None else post  # impossible branch: keep the prediction
        keep = on_anchor and anchor.observations[depth] == o_sym
        kids.append((o_sym, _grow(model, anchor, nb, depth + 1, keep)))
    return PolicyTree(a_sym, tuple(kids))


def sample_tree(
    dbn: DynamicBeliefNet,
    anchor: BehaviorSequence,
    rng: np.random.Generator,
) -> PolicyTree:
    """Grow one complete tree anchored on a feature behavior sequence.

    Nodes on the anchor's observation path copy the anchor's actions; all
    other nodes act myopically under the propagated belief.  The root belief
    is a symmetric Dirichlet draw from ``rng``.
    """
    model = dbn.base
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
    b0 = rng.dirichlet(np.ones(len(model.states)))
    return _grow(model, anchor, b0, 0, True)


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
