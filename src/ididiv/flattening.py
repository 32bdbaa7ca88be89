"""Flattening a two-agent domain with candidate peer models.

The subject agent's planning problem becomes a single-agent POMDP,
``FlatModel``, over augmented states (candidate m, tree position pos,
physical state s), indexed m-major, pos-minor, s-innermost.  Positions are
the preorder node numbers of ``trees.node_table``, which gives each
position's parent and children.  The peer's action at a position is that
entry of the candidate's preorder row, which is the tree itself
(``PolicyTree.preorder``); its observation channel advances the position.
Leaf positions keep themselves (the physical state still moves), and the
subject's observation at a successor position conditions on the action of
that position's unique parent.  Root positions never occur as
successors, so their observation rows are uniform filler.

A belief of the flattened model is the pair (keys, vals) of its support:
ascending augmented indices ``g * S + s`` over all positions g, and their
nonzero probabilities.  The seed-0 MDF set of 6 uav T=3 candidates has
79,128 augmented states, and no belief its solve reaches holds more than
1,376.  The model
copies nothing from the domain.  It holds two per-position arrays, the
peer's action and its parent's (-1 at a root), and reads the domain's
tables through them:
  * the transition is one ``FannedRows`` per subject action over the joint
    table and ``obs_fn_j``; ``predict`` multiplies a belief's support only,
    with the sums of a CSR row-vector product bit for bit.  A CSR matrix of
    the same entries would hold 1.95 M entries (26.6 MB) for that set;
    ``tests/test_flattening.py`` builds one as the oracle;
  * ``expected_reward`` and ``condition`` gather ``reward_i`` and
    ``obs_fn_i`` at a belief's keys;
  * its ``states`` are the augmented indices themselves, ``range(n)``.
The domain was checked when it was built (see ``PosgDomain``), so ``flatten``
checks only the candidate trees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import (
    _TOL,
    DomainValidationError,
    JointTransition,
    PosgDomain,
    _check_rows,
    _check_shape,
    _freeze,
)
from .selection import CandidateModelSet
from .solver import SolvedPolicy, solve_exact
from .trees import node_table, validate_tree

__all__ = ["FannedRows", "FlatModel", "FlatIdid", "flatten", "solve_idid"]


def _row_entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the CSR entries of ``rows``, row after row, and each row's count."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    ends = np.cumsum(lens)
    k = np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lens, lens)
    return k, lens


@dataclass(frozen=True, eq=False)
class FannedRows:
    """One subject action's transition over (position, physical state) pairs.

    State ``g * S + s`` is physical state s at position g.  Its row is row
    (ai, peer[g], s) of the shared ``joint`` table, fanned out over the
    columns of ``kids[g]``: an entry p at physical column s' lands at
    ``kids[g, o] + s'`` with value ``p * obs_j[s', peer[g], o]``.  A
    position without successors holds its own base ``g * S`` in column 0,
    -1 elsewhere, and keeps p as it is.  Nothing is copied from the joint
    table; ``rmatvec`` reads the rows of a belief's support.

    Entries run by row, then by ``kids`` column, then by physical column,
    and zeros from ``obs_j`` count towards ``nnz``: a CSR matrix holding
    these entries in this order has the same ``nnz`` and, since each term
    is ``(p * w) * b[r]`` summed in that order, the same products bit for
    bit.
    """

    joint: JointTransition
    obs_j: np.ndarray
    ai: int
    peer: np.ndarray
    kids: np.ndarray

    def __post_init__(self) -> None:
        for name in ("peer", "kids"):
            getattr(self, name).setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        n = len(self.peer) * self.joint.shape[0]
        return (n, n)

    @property
    def nnz(self) -> int:
        S, _, Aj, _ = self.joint.shape
        first = (self.ai * Aj + np.arange(Aj + 1)) * S
        per_peer = np.diff(self.joint.indptr[first])
        return int(per_peer[self.peer] @ np.count_nonzero(self.kids >= 0, axis=1))

    def rmatvec(self, keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The row vector with ``vals`` at ascending ``keys`` times this
        matrix, as ascending keys and their sums.

        Each key's terms are added in ascending source-row order from 0.0,
        the sums a CSR row-vector product computes; the rows outside
        ``keys`` would add only +0.0.
        """
        S, _, Aj, _ = self.joint.shape
        g, s = np.divmod(keys, S)
        aj = self.peer[g]
        k, lens = _row_entries(self.joint.indptr, (self.ai * Aj + aj) * S + s)
        # One pair per (row, successor), rows ascending, then each pair's
        # copy of its row's entries.
        pair_row, pair_o = np.nonzero(self.kids[g] >= 0)
        kk, n = _row_entries(np.concatenate(([0], np.cumsum(lens))), pair_row)
        k, gp = k[kk], g[pair_row]
        col = self.joint.indices[k]
        w = self.obs_j[col, np.repeat(aj[pair_row], n), np.repeat(pair_o, n)]
        w[np.repeat(self.kids[gp, 0] == gp * S, n)] = 1.0
        weights = (self.joint.data[k] * w) * np.repeat(vals[pair_row], n)
        col = col + np.repeat(self.kids[gp, pair_o], n)
        out, at = np.unique(col, return_inverse=True)
        # bincount adds each key's weights in list order from 0.0.  With no
        # weights at all it would count ints.
        sums = np.bincount(at, weights=weights, minlength=len(out))
        return out, sums.astype(float, copy=False)


@dataclass(frozen=True, eq=False)
class FlatModel:
    """The subject's POMDP over augmented states, on sparse beliefs.

    A state is its augmented index, so ``states`` is ``range(n)``.  A belief
    is a pair (keys, vals): ascending augmented indices and their
    probabilities.  ``transition`` holds one ``FannedRows`` per subject
    action; ``peer`` and ``parent_peer`` give each position's peer action and
    its parent's (-1 at a root), at which ``reward_i`` and ``obs_fn_i``, the
    domain's own tables, are read.  The three methods the solver calls are
    those of ``SingleAgentModel``.
    """

    name: str
    states: range
    actions: tuple[str, ...]
    observations: tuple[str, ...]
    transition: tuple[FannedRows, ...]
    obs_fn_i: np.ndarray
    reward_i: np.ndarray
    peer: np.ndarray
    parent_peer: np.ndarray
    initial_belief: tuple[np.ndarray, np.ndarray]
    horizon: int

    def __post_init__(self) -> None:
        n = len(self.states)
        if len(self.transition) != len(self.actions):
            raise DomainValidationError(
                "transition: %d operators, expected %d"
                % (len(self.transition), len(self.actions))
            )
        for a, op in enumerate(self.transition):
            _check_shape("transition[%d]" % a, op, (n, n))
        given, vals = self.initial_belief
        keys, vals = np.asarray(given, dtype=np.int64), _freeze(vals)
        ascend = keys.ndim == 1 and np.all(np.diff(keys, prepend=-1, append=n) > 0)
        if not ascend or np.any(keys != given):
            raise DomainValidationError(
                "initial_belief: keys must strictly ascend in range(%d)" % n)
        _check_shape("initial_belief", vals, keys.shape)
        _check_rows("initial_belief", vals, 3 * _TOL)  # flatten multiplies two sums within _TOL
        for arr in (self.parent_peer, keys):
            arr.setflags(write=False)
        object.__setattr__(self, "initial_belief", (keys, vals))

    def reward_at(self, keys: np.ndarray, a: int) -> np.ndarray:
        """The reward of action a at each augmented state in ``keys``."""
        g, s = np.divmod(keys, self.reward_i.shape[0])
        return self.reward_i[s, a, self.peer[g]]

    def obs_at(self, keys: np.ndarray, a: int, o: int) -> np.ndarray:
        """Pr(o | s', a) at each augmented state in ``keys``; uniform at roots."""
        g, s = np.divmod(keys, self.obs_fn_i.shape[0])
        par = self.parent_peer[g]
        return np.where(par >= 0, self.obs_fn_i[s, a, par, o], 1.0 / len(self.observations))

    def expected_reward(self, b: tuple[np.ndarray, np.ndarray], a: int) -> float:
        keys, vals = b
        return float(np.add.reduce(self.reward_at(keys, a) * vals))

    def predict(self, b: tuple[np.ndarray, np.ndarray], a: int) -> tuple[np.ndarray, np.ndarray]:
        return self.transition[a].rmatvec(*b)

    def condition(
        self, pred: tuple[np.ndarray, np.ndarray], a: int, o: int
    ) -> tuple[float, tuple[np.ndarray, np.ndarray] | None]:
        keys, vals = pred
        joint = self.obs_at(keys, a, o) * vals
        p = float(np.add.reduce(joint))
        if p > 0.0:
            joint /= p
            keep = joint != 0.0
            return p, (keys[keep], joint[keep])
        return p, None


@dataclass(frozen=True, eq=False)
class FlatIdid:
    """What ``flatten`` returns: the augmented model, read as ``.model``."""

    model: FlatModel


def flatten(domain: PosgDomain, candidates: CandidateModelSet) -> FlatIdid:
    """Build the augmented single-agent model for the subject agent.

    Candidate trees must be complete over the domain's peer observation
    alphabet with depth at least the domain horizon.  The initial belief is
    the product of ``domain.start``, the candidate prior, and point mass on
    each tree's root position, over its nonzero entries; for another
    physical start, flatten ``dataclasses.replace(domain, start=...)``.
    """
    S = len(domain.states)
    act_i = domain.actions_i
    obs_i = domain.observations_i
    n_ai = len(act_i)
    n_oj = len(domain.observations_j)
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
        acts = np.array([aj_index[a] for a in tree.preorder], dtype=np.int64)
        tables.append((acts, layout.parent, layout.children))
    # The first position of each candidate, counted over all candidates.
    first = np.cumsum([0] + [len(acts) for acts, _, _ in tables])[:-1]

    # Per position g over all candidates: the peer's action, its parent's
    # (-1 at a root), and the base g2 * S of each child g2; a leaf keeps
    # itself.
    peer = np.concatenate([acts for acts, _, _ in tables])
    parent_peer = np.concatenate(
        [np.where(parents >= 0, acts[parents], -1) for acts, parents, _ in tables]
    )
    kids = np.full((len(peer), n_oj), -1, dtype=np.int64)
    for g0, (_acts, _parents, children) in zip(first, tables):
        g = g0 + np.arange(len(children))
        kids[g] = np.where(children >= 0, (g0 + children) * S, -1)
        leaf = g[children[:, 0] < 0]
        kids[leaf, 0] = leaf * S
    ops = tuple(
        FannedRows(domain.transition, domain.obs_fn_j, ai, peer, kids) for ai in range(n_ai)
    )

    keys = np.concatenate([g0 * S + np.arange(S) for g0 in first])
    vals = np.concatenate([p * domain.start for p in candidates.prior])
    keep = vals != 0.0

    model = FlatModel(
        name="idid:%s" % domain.name,
        states=range(len(peer) * S),
        actions=act_i,
        observations=obs_i,
        transition=ops,
        obs_fn_i=domain.obs_fn_i,
        reward_i=domain.reward_i,
        peer=peer,
        parent_peer=parent_peer,
        initial_belief=(keys[keep], vals[keep]),
        horizon=domain.horizon,
    )
    return FlatIdid(model)


def solve_idid(flat: FlatIdid) -> SolvedPolicy:
    """Exact subject-agent policy for the flattened model."""
    return solve_exact(flat.model)
