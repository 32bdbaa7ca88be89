"""Interaction simulation between the subject policy and a true peer model.

One experiment: flatten the domain against the candidate set, solve for the
subject's policy once, then play repeated rounds.  Each round draws the true
peer tree (from the candidate prior, or freshly generated outside the set)
and plays it through ``run_episode``, the one way an episode is played: it
checks both trees, then steps the domain forward for the full horizon,
sampling transitions and both observation channels.  Round randomness comes
from per-round spawns of one seed sequence, so runs are reproducible and
insensitive to how many draws an individual round consumes.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from typing import Callable

import numpy as np

from .domains import PosgDomain, project_level0
from .features import extract_features
from .flattening import flatten
# convert_to_dbn is unused here; perfbench/tracer.py binds simulate.convert_to_dbn.
from .generation import convert_to_dbn, sample_tree  # noqa: F401
from .selection import CandidateModelSet
from .solver import solve_exact
# canonical_encode is unused here; perfbench/tracer.py binds simulate.canonical_encode.
from .trees import (  # noqa: F401
    BehaviorSequence, PolicyTree, _count, _table_of, canonical_encode, frame, validate_tree,
)

__all__ = [
    "StepRecord",
    "EpisodeTrace",
    "ExperimentStats",
    "run_episode",
    "run_experiment",
    "EPISODE_COLUMNS",
    "episode_rows",
]

TRUE_MODES = ("from-set", "random-generated")
# The most rounds one experiment plays.  A round took 0.3-1.1 ms (tiger and
# uav T=3, 3 candidates, both true modes, on a 2-vCPU VM), and 100,000
# out-of-set uav rounds 93 s.
MAX_ROUNDS = 100_000

# Draws per phase of the out-of-set sampler before it widens or gives up.
_REJECTION_CAP = 200


@dataclass(frozen=True)
class StepRecord:
    t: int
    state: str
    action_i: str
    action_j: str
    reward_i: float
    reward_j: float
    next_state: str
    obs_i: str
    obs_j: str


@dataclass(frozen=True)
class EpisodeTrace:
    steps: tuple[StepRecord, ...]
    total_reward_i: float
    total_reward_j: float


@dataclass(frozen=True, eq=False)
class ExperimentStats:
    """Summary moments of the rounds' total rewards; a round's own rewards
    reach only ``run_experiment``'s ``on_round``.

    ``reward_variance_i`` is the sample variance (ddof=1), 0.0 for a single
    round.  ``policy_value`` is the subject's planned value against the
    candidate prior, for comparison with realized means.
    """

    rounds: int
    mean_reward_i: float
    reward_variance_i: float
    mean_reward_j: float
    policy_value: float


def run_episode(
    domain: PosgDomain,
    tree_i: PolicyTree,
    tree_j: PolicyTree,
    rng: np.random.Generator,
) -> EpisodeTrace:
    """Play one horizon-length episode with both agents following trees.

    Both trees are checked; a deeper tree plays its top levels.  The first
    state is drawn from ``domain.start``; for another start, pass
    ``dataclasses.replace(domain, start=...)``.
    """
    T = domain.horizon
    validate_tree(tree_i, domain.observations_i, actions=domain.actions_i)
    validate_tree(tree_j, domain.observations_j, actions=domain.actions_j)
    if tree_i.depth < T or tree_j.depth < T:
        raise ValueError(
            "trees of depth (%d, %d) cannot cover horizon %d"
            % (tree_i.depth, tree_j.depth, T)
        )
    S, n_aj = len(domain.states), len(domain.actions_j)
    P = domain.transition
    s = int(rng.choice(S, p=domain.start))

    row_i, kids_i = tree_i.preorder, _table_of(tree_i).children
    row_j, kids_j = tree_j.preorder, _table_of(tree_j).children
    v_i = v_j = 0
    steps: list[StepRecord] = []
    tot_i = tot_j = 0.0
    for t in range(T):
        ai = domain.actions_i.index(row_i[v_i])
        aj = domain.actions_j.index(row_j[v_j])
        ri = float(domain.reward_i[s, ai, aj])
        rj = float(domain.reward_j[s, aj, ai])
        # Draw from the stored entries of row (ai, aj, s), columns ascending.
        # choice takes one double and returns the first index whose running
        # sum exceeds it; at every stored column those sums equal the dense
        # row's, and an unstored zero is never first, so the draw is the same.
        r = (ai * n_aj + aj) * S + s
        lo, hi = P.indptr[r], P.indptr[r + 1]
        s2 = int(P.indices[lo + rng.choice(hi - lo, p=P.data[lo:hi])])
        oi = int(rng.choice(len(domain.observations_i), p=domain.obs_fn_i[s2, ai, aj]))
        oj = int(rng.choice(len(domain.observations_j), p=domain.obs_fn_j[s2, aj]))
        steps.append(
            StepRecord(
                t=t,
                state=domain.states[s],
                action_i=row_i[v_i],
                action_j=row_j[v_j],
                reward_i=ri,
                reward_j=rj,
                next_state=domain.states[s2],
                obs_i=domain.observations_i[oi],
                obs_j=domain.observations_j[oj],
            )
        )
        tot_i += ri
        tot_j += rj
        if t + 1 < T:
            v_i, v_j = kids_i[v_i, oi], kids_j[v_j, oj]
            s = s2
    return EpisodeTrace(steps=tuple(steps), total_reward_i=tot_i, total_reward_j=tot_j)


def _random_anchor(model, rng) -> BehaviorSequence:
    T = model.horizon
    acts = tuple(
        model.actions[int(rng.integers(len(model.actions)))] for _ in range(T)
    )
    obs = tuple(
        model.observations[int(rng.integers(len(model.observations)))]
        for _ in range(T - 1)
    )
    return BehaviorSequence(acts, obs)


def _draw_novel_tree(model, anchors, excluded, rng) -> tuple[str, ...]:
    """The preorder row of the first sampled tree whose row is not in
    ``excluded``, a set of preorder rows.

    The feature-anchored sampler has a finite image that a well-expanded
    candidate set can cover completely.  After ``_REJECTION_CAP`` draws the
    sampler widens to uniformly random anchor sequences, which can plant any
    action path and so reach trees no feature anchor produces.
    """
    for n in range(2 * _REJECTION_CAP):
        if n < _REJECTION_CAP:
            anchor = anchors[int(rng.integers(len(anchors)))]
        else:
            anchor = _random_anchor(model, rng)
        row = sample_tree(model, anchor, rng)
        if row not in excluded:
            return row
    raise RuntimeError(
        "failed to draw a true model outside the candidate set in %d attempts"
        % (2 * _REJECTION_CAP)
    )


def run_experiment(
    domain: PosgDomain,
    candidates: CandidateModelSet,
    true_mode: str = "from-set",
    rounds: int = 50,
    seed=0,
    excluded_trees=None,
    on_round: Callable[[int, EpisodeTrace], object] | None = None,
) -> ExperimentStats:
    """Plan once against the candidate set, then play rounds through ``run_episode``.

    true_mode "from-set" draws the peer's true tree from the candidate
    prior each round; "random-generated" draws a fresh tree outside the set
    each round, anchored on the known candidates' features, falling back to
    random anchors when those features cannot escape the set.
    ``excluded_trees`` widens the set the true tree must avoid, so
    algorithms under comparison can face an identical true-model stream by
    excluding the union of their candidate sets.  A tree deeper than the
    horizon plays as its top ``domain.horizon`` levels, so anchors come from
    the known trees' frames at the horizon, and a drawn tree must differ
    from the frame of every candidate and of every excluded tree at least
    that deep over the peer's observations; shallower excluded trees and
    those over another alphabet cannot equal a drawn tree and are ignored.
    ``on_round(index, trace)``, when given, receives each round's
    ``EpisodeTrace`` as the round ends; no trace is kept.
    """
    if true_mode not in TRUE_MODES:
        raise ValueError("true_mode must be one of %r" % (TRUE_MODES,))
    rounds = _count("rounds", rounds, MAX_ROUNDS)
    if excluded_trees is not None and true_mode != "random-generated":
        raise ValueError("excluded_trees only applies to random-generated mode")

    flat = flatten(domain, candidates)
    policy = solve_exact(flat.model)

    if true_mode == "random-generated":
        level0 = project_level0(domain, "j")
        T = level0.horizon
        known = [
            t for t, p in zip(candidates.trees, candidates.provenance) if p == "known"
        ] or list(candidates.trees)
        anchors = extract_features(list(dict.fromkeys(frame(t, T) for t in known)))
        # Drawn trees are compared by their rows, each the row of a depth-T
        # tree.  flatten checked the candidates against the peer's
        # observations; an excluded tree over another alphabet (a leaf is
        # over any) could share a framed row, so it is left out.
        excluded = {frame(t, T).preorder for t in candidates.trees}
        excluded.update(
            frame(t, T).preorder
            for t in excluded_trees or ()
            if t.depth >= T and t.observations in ((), level0.observations)
        )

    # One child seed per round, spawned as the round starts.
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rewards_i, rewards_j = np.empty(rounds), np.empty(rounds)
    for index in range(rounds):
        rng = np.random.default_rng(root.spawn(1)[0])
        if true_mode == "from-set":
            tree_j = candidates.trees[int(rng.choice(len(candidates.trees), p=candidates.prior))]
        else:
            row = _draw_novel_tree(level0, anchors, excluded, rng)
            tree_j = PolicyTree(row, level0.observations)
        ep = run_episode(domain, policy.tree, tree_j, rng)
        rewards_i[index], rewards_j[index] = ep.total_reward_i, ep.total_reward_j
        if on_round is not None:
            on_round(index, ep)

    return ExperimentStats(
        rounds=rounds,
        mean_reward_i=float(rewards_i.mean()),
        reward_variance_i=float(rewards_i.var(ddof=1)) if rounds > 1 else 0.0,
        mean_reward_j=float(rewards_j.mean()),
        policy_value=policy.value,
    )


EPISODE_COLUMNS = ("round", *(f.name for f in fields(StepRecord)))


def episode_rows(index: int, trace: EpisodeTrace) -> list[tuple]:
    """The step-level CSV rows of round ``index``, one per step."""
    return [(index, *astuple(st)) for st in trace.steps]

