"""Flattening a two-agent domain with candidate peer models.

The subject agent's planning problem becomes a single-agent POMDP over
augmented states (candidate m, tree position pos, physical state s), indexed
m-major, pos-minor, s-innermost.  Positions are the preorder node numbers of
``trees.node_table``, which gives each position's parent and children.  The
peer's action is read off the tree position (``PolicyTree.preorder``); its
observation channel advances the position.  Leaf positions keep themselves
(the physical state still moves), and the subject's observation at a
successor position conditions on the action of that position's unique
parent.  Root positions never occur as successors, so their observation
rows are uniform filler.

The flattened model copies nothing from the domain.  It holds two
per-position arrays, the peer's action and its parent's (-1 at a root), and
reads the domain's tables through them:
  * the transition is one ``domains.FannedRows`` per subject action over the
    joint table and ``obs_fn_j``.  A CSR matrix of the same entries would
    hold 1.95 M entries (26.6 MB) for a 6-candidate T=3 uav set;
    ``tests/test_flattening.py`` builds one as the oracle, whose ``nnz`` and
    products, bit for bit, the operators reproduce;
  * the likelihoods and rewards are ``domains.PositionTable`` gathers from
    ``obs_fn_i`` and ``reward_i``, equal value for value to per-position
    copies (12.7 MB and 3.2 MB for that set), which the tests also build;
  * the state labels are ``domains.PositionLabels``, made on index.
Level-0 models, which come from ``domains.project_level0``, stay dense
arrays; ``transition_matrix``, ``likelihood`` and ``rewards`` read both
forms.  ``flatten`` validates the domain first, so an error names the domain
table at fault.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import (
    FannedRows,
    PositionLabels,
    PositionTable,
    PosgDomain,
    SingleAgentModel,
    validate_domain,
    validate_model,
)
from .selection import CandidateModelSet
from .solver import SolvedPolicy, solve_exact
from .trees import node_table, validate_tree

__all__ = ["FlatIdid", "flatten", "solve_idid"]

@dataclass(frozen=True, eq=False)
class FlatIdid:
    """The augmented model plus the indexing needed to interpret it."""

    model: SingleAgentModel
    domain: PosgDomain
    candidates: CandidateModelSet
    offsets: tuple[int, ...]
    node_counts: tuple[int, ...]

    def augmented_index(self, m: int, pos: int, s: int) -> int:
        return self.offsets[m] + pos * len(self.domain.states) + s


def flatten(domain: PosgDomain, candidates: CandidateModelSet) -> FlatIdid:
    """Build the augmented single-agent model for the subject agent.

    Candidate trees must be complete over the domain's peer observation
    alphabet with depth at least the domain horizon.  The initial belief is
    the product of ``domain.start_distribution()``, the candidate prior,
    and point mass on each tree's root position; for another physical
    start, flatten ``dataclasses.replace(domain, start=...)``.
    """
    S = len(domain.states)
    act_i = domain.actions_i
    obs_i = domain.observations_i
    n_ai = len(act_i)
    n_oi, n_oj = len(obs_i), len(domain.observations_j)
    aj_index = {a: k for k, a in enumerate(domain.actions_j)}

    for k, tree in enumerate(candidates.trees):
        if tree.depth < domain.horizon:
            raise ValueError(
                "candidate %d has depth %d, below the domain horizon %d"
                % (k, tree.depth, domain.horizon)
            )
        validate_tree(tree, domain.observations_j, actions=domain.actions_j)

    # The model reads the domain's tables without copying them; a bad entry
    # is named by its domain table.
    validate_domain(domain)

    # Per candidate: peer action index, parent and children per position.
    tables = []
    for tree in candidates.trees:
        layout = node_table(n_oj, tree.depth)
        acts = np.array([aj_index[a] for a in tree.preorder], dtype=np.int64)
        tables.append((acts, layout.parent, layout.children))
    node_counts = tuple(len(tab[0]) for tab in tables)
    offsets = tuple(np.concatenate(([0], np.cumsum([n * S for n in node_counts])))[:-1])
    s_aug = offsets[-1] + node_counts[-1] * S

    # Per position g over all candidates: the peer's action, its parent's
    # (-1 at a root), and the base g2 * S of each child g2; a leaf keeps
    # itself.
    peer = np.concatenate([acts for acts, _, _ in tables])
    parent_peer = np.concatenate(
        [np.where(parents >= 0, acts[parents], -1) for acts, parents, _ in tables]
    )
    kids = np.full((len(peer), n_oj), -1, dtype=np.int64)
    for m, (_acts, _parents, children) in enumerate(tables):
        g = offsets[m] // S + np.arange(node_counts[m])
        kids[g] = np.where(children >= 0, (g[0] + children) * S, -1)
        leaf = g[children[:, 0] < 0]
        kids[leaf, 0] = leaf * S
    ops = tuple(
        FannedRows(domain.transition, domain.obs_fn_j, ai, peer, kids) for ai in range(n_ai)
    )

    b0 = domain.start_distribution()
    b0_aug = np.zeros(s_aug)
    for m in range(len(tables)):
        b0_aug[offsets[m] : offsets[m] + S] = candidates.prior[m] * b0

    model = SingleAgentModel(
        name="idid:%s" % domain.name,
        states=PositionLabels(node_counts, domain.states),
        actions=act_i,
        observations=obs_i,
        transition=ops,
        obs_fn=PositionTable(domain.obs_fn_i, parent_peer, 1.0 / n_oi),
        reward=PositionTable(domain.reward_i, peer),
        initial_belief=b0_aug,
        horizon=domain.horizon,
    )
    validate_model(model)
    return FlatIdid(
        model=model,
        domain=domain,
        candidates=candidates,
        offsets=offsets,
        node_counts=node_counts,
    )


def solve_idid(flat: FlatIdid) -> SolvedPolicy:
    """Exact subject-agent policy for the flattened model."""
    return solve_exact(flat.model)
