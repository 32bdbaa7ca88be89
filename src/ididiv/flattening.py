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

Physical moves come from the domain's compact joint transition one
(ai, aj) block at a time, nonzeros only, in row-major order.

A flattened model holds one SparseRows block (CSR with int32 column
indices) per subject action, built and compressed one action at a time,
explicit zeros included.  Each augmented row reaches only the children of
one position, and a T=3 uav model already has about 79k augmented states,
which a dense table could not hold.  Level-0 models, which come from
``domains.project_level0``, stay dense [S, A, S'] arrays: on their few
physical states a dense product is an order of magnitude faster than a
CSR one.  Both forms support ``b @ model.transition_matrix(a)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import PosgDomain, SingleAgentModel, SparseRows, validate_model
from .selection import CandidateModelSet
from .solver import SolvedPolicy, solve_exact
from .trees import node_table, validate_tree

__all__ = ["FlatIdid", "flatten", "solve_idid"]

# Largest augmented state count whose indices fit int32 CSR columns.
MAX_STATES = int(np.iinfo(np.int32).max)


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
    n_ai, n_oi, n_oj = len(act_i), len(obs_i), len(domain.observations_j)
    aj_index = {a: k for k, a in enumerate(domain.actions_j)}

    for k, tree in enumerate(candidates.trees):
        if tree.depth < domain.horizon:
            raise ValueError(
                "candidate %d has depth %d, below the domain horizon %d"
                % (k, tree.depth, domain.horizon)
            )
        validate_tree(tree, domain.observations_j, actions=domain.actions_j)

    # Per candidate: peer action index, parent and children per position.
    tables = []
    for tree in candidates.trees:
        layout = node_table(n_oj, tree.depth)
        tables.append(([aj_index[a] for a in tree.preorder], layout.parent, layout.children))
    node_counts = tuple(len(tab[0]) for tab in tables)
    offsets = tuple(np.concatenate(([0], np.cumsum([n * S for n in node_counts])))[:-1])
    s_aug = offsets[-1] + node_counts[-1] * S

    if s_aug > MAX_STATES:
        raise ValueError(
            "%d augmented states overflow the int32 column indices (at most %d)"
            % (s_aug, MAX_STATES)
        )

    # Physical transition nonzeros per action pair, shared across positions.
    nz_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def phys_nz(ai: int, aj: int):
        key = (ai, aj)
        if key not in nz_cache:
            blk = domain.transition.block(ai, aj)
            r = np.repeat(np.arange(S, dtype=np.int32), np.diff(blk.indptr))
            nz_cache[key] = (r, blk.indices, blk.data)
        return nz_cache[key]

    def action_entries(ai: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, vals) of action ai's augmented transition, zeros kept.

        No (row, col) pair repeats: a row's successors differ in position
        (one child per peer observation) or in physical state.
        """
        rows_parts: list[np.ndarray] = []
        cols_parts: list[np.ndarray] = []
        vals_parts: list[np.ndarray] = []
        for m, (acts, parents, children) in enumerate(tables):
            for pos in range(node_counts[m]):
                aj = acts[pos]
                r, c, v = phys_nz(ai, aj)
                base = int(offsets[m]) + pos * S
                if children[pos, 0] < 0:
                    # Leaf: the position self-loops, observation mass sums out.
                    rows_parts.append(base + r)
                    cols_parts.append(base + c)
                    vals_parts.append(v)
                    continue
                for o in range(n_oj):
                    pos2 = int(children[pos, o])
                    w = domain.obs_fn_j[:, aj, o]
                    rows_parts.append(base + r)
                    cols_parts.append(int(offsets[m]) + pos2 * S + c)
                    vals_parts.append(v * w[c])
        return (
            np.concatenate(rows_parts),
            np.concatenate(cols_parts),
            np.concatenate(vals_parts),
        )

    # One action at a time, so only one action's entries are alive at once.
    blocks = []
    for ai in range(n_ai):
        rows, cols, vals = action_entries(ai)
        order = np.argsort(rows, kind="stable")
        indptr = np.zeros(s_aug + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=s_aug), out=indptr[1:])
        blocks.append(SparseRows(indptr, cols[order], vals[order], (s_aug, s_aug)))
        del rows, cols, vals, order

    O_aug = np.empty((s_aug, n_ai, n_oi))
    R_aug = np.empty((s_aug, n_ai))
    for m, (acts, parents, _children) in enumerate(tables):
        for pos in range(node_counts[m]):
            base = offsets[m] + pos * S
            par = int(parents[pos])
            if par < 0:
                O_aug[base : base + S] = 1.0 / n_oi
            else:
                O_aug[base : base + S] = domain.obs_fn_i[:, :, acts[par], :]
            R_aug[base : base + S] = domain.reward_i[:, :, acts[pos]]

    b0 = domain.start_distribution()
    b0_aug = np.zeros(s_aug)
    for m in range(len(tables)):
        b0_aug[offsets[m] : offsets[m] + S] = candidates.prior[m] * b0

    names = tuple(
        "m%d:p%d:%s" % (m, pos, st)
        for m in range(len(tables))
        for pos in range(node_counts[m])
        for st in domain.states
    )
    model = SingleAgentModel(
        name="idid:%s" % domain.name,
        states=names,
        actions=act_i,
        observations=obs_i,
        transition=tuple(blocks),
        obs_fn=O_aug,
        reward=R_aug,
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
