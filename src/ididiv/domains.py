"""Two-agent domains and single-agent projections.

A PosgDomain is a fully tabular two-agent partially observable stochastic
game from the point of view of a subject agent i interacting with a peer j.
Agent j's observation channel depends only on (next state, own action), which
is what lets j be modeled by an ordinary single-agent POMDP at level 0.

Builtins: a two-door tiger game with door creaks, and a 5x5 grid chase
between a chaser (i) and a fugitive (j) heading for a safe-house corner.

A domain's joint transition has one type:
``JointTransition``, the [S, Ai, Aj, S'] table as CSR arrays, 0.62 MB for
the uav chase instead of a 79 MB dense array; ``block(ai, aj)`` is the
[S, 1, 1, S'] table of one action pair over the same arrays.  A domain file
lists its entries.  A ``PosgDomain`` runs ``validate_domain`` when it is
built, so every domain that exists has passed it.

A ``SingleAgentModel`` (``project_level0``) has one form: dense tables,
transition [S, A, S'], and dense beliefs.  Its ``expected_reward``,
``predict`` and ``condition`` are the interface the solver reads, and
``flattening.FlatModel`` offers the same three over sparse beliefs.

Built-in domains are shared read-only objects.  While any reference to one
is alive, ``builtin_domain`` (and ``builtin_tiger``/``builtin_uav``) returns
that same object for the same name and horizon, so a caller that holds the
domain lets grids and subcommands run in the same process reuse it instead
of rebuilding it.  Nothing may mutate a domain: its arrays are read-only and
``level0`` is a read-only mapping.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .trees import _check_symbols, _read_json

__all__ = [
    "DomainValidationError",
    "JointTransition",
    "SingleAgentModel",
    "PosgDomain",
    "validate_model",
    "validate_domain",
    "builtin_tiger",
    "builtin_uav",
    "builtin_domain",
    "BUILTIN_DOMAINS",
    "project_level0",
    "with_horizon",
    "load_domain",
    "serialize_domain",
    "domain_from_obj",
    "domain_to_obj",
]

_TOL = 1e-12


class DomainValidationError(ValueError):
    """A stochastic table fails normalization, shape, or labeling checks."""


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class JointTransition:
    """A two-agent transition table [S, Ai, Aj, S'] in compressed sparse row form.

    Row ``r = (ai * Aj + aj) * S + s`` is P(. | s, ai, aj): it holds
    ``data[indptr[r]:indptr[r + 1]]`` at the columns
    ``indices[indptr[r]:indptr[r + 1]]``, so the rows of one action pair
    form the contiguous ``block(ai, aj)``.  ``from_entries`` stores only
    nonzero probabilities, columns ascending within a row; ``nnz`` counts
    every stored entry.  Construction freezes the arrays but does not check
    them; a ``PosgDomain`` checks its table when it is built.  Two tables
    are equal when their shapes and stored entries are.

    Two index forms read dense values, read-only: ``[s, ai, aj]`` is one
    row and ``[:, ai, aj, :]`` one [S, S'] block.  Any other key raises
    IndexError, and ``np.asarray`` raises TypeError: nothing densifies the
    whole table.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int, int, int]

    # No ufunc or arithmetic densifies the table behind the caller's back.
    __array_ufunc__ = None

    def __post_init__(self) -> None:
        for name in ("indptr", "indices"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "data", _freeze(self.data))
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))

    def __reduce__(self):
        # Rebuild through __init__, so the arrays come back read-only.
        return JointTransition, (self.indptr, self.indices, self.data, self.shape)

    @classmethod
    def _from_sorted(cls, rows, cols, vals, shape) -> "JointTransition":
        """The table of entries sorted by row, then by column, with int32 columns."""
        S, Ai, Aj, _ = shape
        indptr = np.zeros(Ai * Aj * S + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=Ai * Aj * S), out=indptr[1:])
        return cls(indptr, cols.astype(np.int32), vals, shape)

    @classmethod
    def from_entries(cls, entries, shape) -> "JointTransition":
        """The table holding p at [s, ai, aj, s'] for each [s, ai, aj, s', p].

        Entries are stored by row (ai, aj, s), then by column s', and those
        with p == 0 are dropped.  An entry that is not five numbers, an index
        that is not an integer inside ``shape`` and a repeated (s, ai, aj, s')
        raise DomainValidationError naming the entry; ``validate_domain``
        checks the values of p.
        """
        S, Ai, Aj, S2 = shape = tuple(int(n) for n in shape)
        try:
            arr = np.array(entries, dtype=float)
        except (TypeError, ValueError):
            arr = None
        if arr is None or arr.ndim != 2 or arr.shape[1] != 5:
            # Only an empty list or a bad entry gets here; find the entry.
            for n, e in enumerate(entries):
                try:
                    if np.asarray(e, dtype=float).shape == (5,):
                        continue
                except (TypeError, ValueError):
                    pass
                raise DomainValidationError("transition: entry %d is not [s, ai, aj, s', p]" % n)
            arr = np.array(entries, dtype=float).reshape(-1, 5)
        idx = arr[:, :4]
        bad = ((idx != np.floor(idx)) | (idx < 0) | (idx >= shape)).any(axis=1)
        if bad.any():
            n = int(np.flatnonzero(bad)[0])
            raise DomainValidationError(
                "transition: entry %d %r has an index that is not an integer inside %r"
                % (n, arr[n].tolist(), shape)
            )
        s, ai, aj, col = idx.astype(np.int64).T
        row = (ai * Aj + aj) * S + s
        key = row * S2 + col
        order = np.argsort(key, kind="stable")
        dup = np.flatnonzero(np.diff(key[order]) == 0)
        if dup.size:
            first, again = order[dup[0]], order[dup[0] + 1]
            raise DomainValidationError(
                "transition: entry %d repeats (s, ai, aj, s') %r of entry %d"
                % (again, idx[again].astype(int).tolist(), first)
            )
        order = order[arr[order, 4] != 0.0]
        return cls._from_sorted(row[order], col[order], arr[order, 4], shape)

    @property
    def nnz(self) -> int:
        return len(self.indices)

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    def _coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (s, ai, aj) of each stored entry, in storage order."""
        S, _, Aj, _ = self.shape
        pair, s = np.divmod(np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr)), S)
        return (s, *np.divmod(pair, Aj))

    def block(self, ai: int, aj: int) -> "JointTransition":
        """The [S, 1, 1, S'] table of action pair (ai, aj), sharing this table's arrays."""
        S, Ai, Aj, S2 = self.shape
        if not (0 <= ai < Ai and 0 <= aj < Aj):
            raise IndexError("action pair (%d, %d) outside [%d, %d)" % (ai, aj, Ai, Aj))
        r0 = (ai * Aj + aj) * S
        ptr = self.indptr[r0 : r0 + S + 1]
        lo, hi = ptr[0], ptr[-1]
        return JointTransition(ptr - lo, self.indices[lo:hi], self.data[lo:hi], (S, 1, 1, S2))

    def __getitem__(self, key) -> np.ndarray:
        S, Ai, Aj, S2 = self.shape
        n = len(key) if type(key) is tuple else 0
        whole = n == 4 and all(type(k) is slice and k == slice(None) for k in key[::3])
        if n == 3 and all(_is_index(k, m) for k, m in zip(key, self.shape)):
            # One row, the simulator's step.
            r = (key[1] * Aj + key[2]) * S + key[0]
            lo, hi = self.indptr[r], self.indptr[r + 1]
            out = np.zeros(S2)
            out[self.indices[lo:hi]] = self.data[lo:hi]
        elif whole and _is_index(key[1], Ai) and _is_index(key[2], Aj):
            blk = self.block(key[1], key[2])
            out = np.zeros((S, S2))
            out[blk._coords()[0], blk.indices] = blk.data
        else:
            raise IndexError(
                "a JointTransition reads [s, ai, aj] or [:, ai, aj, :] with integers "
                "inside %r; block(ai, aj) gives a block's sparse rows" % (self.shape,)
            )
        out.setflags(write=False)
        return out

    def __array__(self, dtype=None, copy=None):
        raise TypeError("a JointTransition is not densified; read block(ai, aj)")

    def __eq__(self, other):
        if not isinstance(other, JointTransition):
            return NotImplemented
        return self.shape == other.shape and all(
            np.array_equal(getattr(self, k), getattr(other, k))
            for k in ("indptr", "indices", "data")
        )


def _is_index(k, n: int) -> bool:
    """k is an integer (not a bool) in [0, n)."""
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool) and 0 <= k < n


@dataclass(frozen=True, eq=False)
class SingleAgentModel:
    """Finite-horizon tabular POMDP over dense beliefs.

    Parameters
    ----------
    states : tuple of str
    transition : ndarray [S, A, S']
        Row-stochastic per (s, a).
    obs_fn : ndarray [S', A, O]
        Probability of each observation after landing in s' under action a.
    reward : ndarray [S, A]
    initial_belief : ndarray [S]
    horizon : int
        Number of decisions; policy trees for this model have this depth.

    A belief is a length-S vector.  ``expected_reward``, ``predict`` and
    ``condition`` are the model interface the solver and the sampler read;
    ``flattening.FlatModel`` offers the same three over sparse beliefs.
    """

    name: str
    states: tuple[str, ...]
    actions: tuple[str, ...]
    observations: tuple[str, ...]
    transition: np.ndarray
    obs_fn: np.ndarray
    reward: np.ndarray
    initial_belief: np.ndarray
    horizon: int

    def __post_init__(self) -> None:
        for name in ("transition", "obs_fn", "reward", "initial_belief"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    def expected_reward(self, b: np.ndarray, a: int) -> float:
        """Sum over states of b times the reward of action a."""
        return float(np.add.reduce(self.reward[:, a] * b))

    def predict(self, b: np.ndarray, a: int) -> np.ndarray:
        """The state distribution after action a from belief b."""
        return b @ self.transition[:, a, :]

    def condition(
        self, pred: np.ndarray, a: int, o: int
    ) -> tuple[float, np.ndarray | None]:
        """Pr(o) under the predicted belief after action a, and the
        posterior, which is None when the observation has probability zero."""
        joint = self.obs_fn[:, a, o] * pred
        p = float(np.add.reduce(joint))
        if p > 0.0:
            joint /= p
            return p, joint
        return p, None

    def replace(self, **kw) -> "SingleAgentModel":
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True, eq=False)
class PosgDomain:
    """Two-agent tabular game.

    Array layouts:
      transition [S, Ai, Aj, S'], obs_fn_i [S', Ai, Aj, Oi],
      obs_fn_j [S', Aj, Oj], reward_i [S, Ai, Aj], reward_j [S, Aj, Ai].
    ``transition`` is a JointTransition (see ``JointTransition.from_entries``);
    anything else raises DomainValidationError.
    ``start`` is the initial physical state distribution (uniform if None).
    ``level0`` optionally carries prebuilt single-agent views keyed by
    agent name ("i" or "j"); project_level0 returns these when present.
    Arrays and ``level0`` are read-only, so a domain can be shared.

    A domain is valid once it exists: construction, ``dataclasses.replace``
    and unpickling all run ``validate_domain``, which raises
    DomainValidationError naming the table and row at fault.
    """

    name: str
    states: tuple[str, ...]
    actions_i: tuple[str, ...]
    actions_j: tuple[str, ...]
    observations_i: tuple[str, ...]
    observations_j: tuple[str, ...]
    transition: JointTransition
    obs_fn_i: np.ndarray
    obs_fn_j: np.ndarray
    reward_i: np.ndarray
    reward_j: np.ndarray
    horizon: int
    start: np.ndarray | None = None
    level0: Mapping[str, SingleAgentModel] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.transition, JointTransition):
            raise DomainValidationError(
                "transition: %s, expected a JointTransition"
                % type(self.transition).__name__
            )
        for name in ("obs_fn_i", "obs_fn_j", "reward_i", "reward_j"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        if self.start is not None:
            object.__setattr__(self, "start", _freeze(self.start))
        object.__setattr__(self, "level0", MappingProxyType(dict(self.level0)))
        validate_domain(self)

    def __reduce__(self):
        # A mappingproxy does not pickle, so rebuild through __init__ from
        # the fields with level0 as a dict.
        kw = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return functools.partial(PosgDomain, **{**kw, "level0": dict(self.level0)}), ()

    def start_distribution(self) -> np.ndarray:
        if self.start is not None:
            return self.start
        n = len(self.states)
        return np.full(n, 1.0 / n)


def _check_labels(path: str, labels: Sequence[str]) -> tuple[str, ...]:
    tup = tuple(labels)
    if len(tup) == 0:
        raise DomainValidationError("%s: empty label list" % path)
    if len(set(tup)) != len(tup):
        raise DomainValidationError("%s: duplicate labels in %r" % (path, tup))
    try:
        _check_symbols(tup)
    except ValueError as exc:
        raise DomainValidationError("%s: %s" % (path, exc)) from exc
    return tup


def _check_rows(path: str, arr: np.ndarray) -> None:
    """Last axis must be a probability distribution on every row."""
    if not np.all(np.isfinite(arr)):
        raise DomainValidationError("%s: non-finite probability" % path)
    if np.any(arr < -_TOL):
        raise DomainValidationError("%s: negative probability" % path)
    sums = arr.sum(axis=-1)
    bad = np.abs(sums - 1.0) > _TOL
    if np.any(bad):
        idx = tuple(int(k) for k in np.argwhere(bad)[0])
        raise DomainValidationError(
            "%s: row %r sums to %.17g, expected 1 within %g"
            % (path, idx, float(sums[bad][0]), _TOL)
        )


def _check_shape(path: str, arr: np.ndarray, shape: tuple[int, ...]) -> None:
    if arr.shape != shape:
        raise DomainValidationError(
            "%s: shape %r, expected %r" % (path, arr.shape, shape)
        )


def _check_csr(path: str, T: JointTransition) -> None:
    """CSR structure of a joint table whose shape has been checked."""
    S, Ai, Aj, S2 = T.shape
    R = Ai * Aj * S
    ptr, idx, dat = T.indptr, T.indices, T.data
    if ptr.dtype.kind not in "iu" or idx.dtype.kind not in "iu":
        raise DomainValidationError("%s: indptr and indices must be integers" % path)
    if ptr.shape != (R + 1,) or ptr[0] != 0 or ptr[-1] != len(idx):
        raise DomainValidationError(
            "%s: indptr must have length %d, start at 0 and end at nnz %d"
            % (path, R + 1, len(idx))
        )
    if np.any(np.diff(ptr) < 0):
        raise DomainValidationError("%s: indptr decreases" % path)
    if idx.size and (idx.min() < 0 or idx.max() >= S2):
        raise DomainValidationError("%s: column index outside [0, %d)" % (path, S2))
    if dat.shape != idx.shape:
        raise DomainValidationError(
            "%s: %d data entries for %d indices" % (path, len(dat), len(idx))
        )


def _check_sparse_rows(path: str, blk: JointTransition) -> None:
    """Every row of a well-formed [S, 1, 1, S'] block is a probability distribution."""
    dat = blk.data
    if not np.all(np.isfinite(dat)):
        raise DomainValidationError("%s: non-finite probability" % path)
    if dat.size and dat.min() < -_TOL:
        raise DomainValidationError("%s: negative probability" % path)
    sums = np.bincount(blk._coords()[0], weights=dat, minlength=blk.shape[0])
    bad = np.abs(sums - 1.0) > _TOL
    if np.any(bad):
        s = int(np.flatnonzero(bad)[0])
        raise DomainValidationError(
            "%s: row %d sums to %.17g" % (path, s, float(sums[s]))
        )


def validate_model(m: SingleAgentModel) -> None:
    """Raise DomainValidationError naming the offending table and row."""
    S = len(_check_labels("states", m.states))
    A = len(_check_labels("actions", m.actions))
    O = len(_check_labels("observations", m.observations))
    if m.horizon < 1:
        raise DomainValidationError("horizon: must be >= 1, got %d" % m.horizon)
    _check_shape("transition", m.transition, (S, A, S))
    _check_rows("transition", m.transition)
    _check_shape("obs_fn", m.obs_fn, (S, A, O))
    _check_rows("obs_fn", m.obs_fn)
    _check_shape("reward", m.reward, (S, A))
    if not np.all(np.isfinite(m.reward)):
        raise DomainValidationError("reward: non-finite entry")
    _check_shape("initial_belief", m.initial_belief, (S,))
    _check_rows("initial_belief", m.initial_belief)


def validate_domain(d: PosgDomain) -> None:
    S = len(_check_labels("states", d.states))
    Ai = len(_check_labels("actions_i", d.actions_i))
    Aj = len(_check_labels("actions_j", d.actions_j))
    Oi = len(_check_labels("observations_i", d.observations_i))
    Oj = len(_check_labels("observations_j", d.observations_j))
    if d.horizon < 1:
        raise DomainValidationError("horizon: must be >= 1, got %d" % d.horizon)
    T = d.transition
    _check_shape("transition", T, (S, Ai, Aj, S))
    _check_csr("transition", T)
    for ai in range(Ai):
        for aj in range(Aj):
            _check_sparse_rows("transition[:, %d, %d]" % (ai, aj), T.block(ai, aj))
    _check_shape("obs_fn_i", d.obs_fn_i, (S, Ai, Aj, Oi))
    _check_rows("obs_fn_i", d.obs_fn_i)
    _check_shape("obs_fn_j", d.obs_fn_j, (S, Aj, Oj))
    _check_rows("obs_fn_j", d.obs_fn_j)
    _check_shape("reward_i", d.reward_i, (S, Ai, Aj))
    _check_shape("reward_j", d.reward_j, (S, Aj, Ai))
    for nm in ("reward_i", "reward_j"):
        if not np.all(np.isfinite(getattr(d, nm))):
            raise DomainValidationError("%s: non-finite entry" % nm)
    if d.start is not None:
        _check_shape("start", d.start, (S,))
        _check_rows("start", d.start)
    for agent, model in d.level0.items():
        if agent not in ("i", "j"):
            raise DomainValidationError("level0: unknown agent %r" % agent)
        validate_model(model)


# ---------------------------------------------------------------- tiger ----

def _build_tiger(horizon: int) -> PosgDomain:
    """Two-agent tiger with growls (0.85) and door creaks (0.9).

    Both agents face the same two doors.  Opening any door relocates the
    tiger uniformly.  Agent i hears a growl direction (informative only
    when i listens) combined with a creak clue about j's door action;
    agent j hears only the growl.  Listening costs 1, a correct door pays
    +10, the tiger door costs 100, for each agent independently.
    """
    states = ("TigerLeft", "TigerRight")
    acts = ("OpenLeft", "OpenRight", "Listen")
    obs_j = ("GrowlLeft", "GrowlRight")
    creaks = ("CreakLeft", "CreakRight", "Silence")
    obs_i = tuple("%s%s" % (g, c) for g in obs_j for c in creaks)

    S, A = 2, 3
    L, R, LISTEN = 0, 1, 2

    # Opening any door resets the state uniformly; double listen keeps it.
    pairs = [(ai, aj) for ai in range(A) for aj in range(A) if (ai, aj) != (LISTEN, LISTEN)]
    entries = [(s, ai, aj, s2, 0.5) for ai, aj in pairs for s in range(S) for s2 in range(S)]
    entries += [(s, LISTEN, LISTEN, s, 1.0) for s in range(S)]
    T = JointTransition.from_entries(entries, (S, A, A, S))

    # Growl accuracy 0.85 for a listener, uninformative for an opener.
    def growl(s: int, act: int) -> np.ndarray:
        if act != LISTEN:
            return np.array([0.5, 0.5])
        if s == L:
            return np.array([0.85, 0.15])
        return np.array([0.15, 0.85])

    # Creak: j's open makes the matching creak likely (0.9), the opposite
    # creak and silence split the rest; listening is mostly silent.
    def creak(aj: int) -> np.ndarray:
        if aj == L:
            return np.array([0.9, 0.05, 0.05])
        if aj == R:
            return np.array([0.05, 0.9, 0.05])
        return np.array([0.05, 0.05, 0.9])

    Oi = np.zeros((S, A, A, 6))
    for s in range(S):
        for ai in range(A):
            for aj in range(A):
                Oi[s, ai, aj, :] = np.outer(growl(s, ai), creak(aj)).ravel()

    Oj = np.zeros((S, A, 2))
    for s in range(S):
        for aj in range(A):
            Oj[s, aj, :] = growl(s, aj)

    def base_reward(s: int, act: int) -> float:
        if act == LISTEN:
            return -1.0
        return -100.0 if act == s else 10.0

    Ri = np.zeros((S, A, A))
    Rj = np.zeros((S, A, A))
    for s in range(S):
        for a in range(A):
            Ri[s, a, :] = base_reward(s, a)
            Rj[s, a, :] = base_reward(s, a)

    return PosgDomain(
        name="tiger",
        states=states,
        actions_i=acts,
        actions_j=acts,
        observations_i=obs_i,
        observations_j=obs_j,
        transition=T,
        obs_fn_i=Oi,
        obs_fn_j=Oj,
        reward_i=Ri,
        reward_j=Rj,
        horizon=horizon,
        start=np.array([0.5, 0.5]),
    )


# ------------------------------------------------------------------ uav ----

_GRID = 5
_SAFE = 0  # cell (0, 0)
_UAV_MOVES = ("N", "S", "E", "W", "Stay")
_QUADS = ("NE", "NW", "SE", "SW")


def _cell_name(c: int) -> str:
    return "X%dY%d" % (c % _GRID, c // _GRID)


def _move_target(c: int, move: int) -> int:
    x, y = c % _GRID, c // _GRID
    dx, dy = ((0, 1), (0, -1), (1, 0), (-1, 0), (0, 0))[move]
    nx = min(max(x + dx, 0), _GRID - 1)
    ny = min(max(y + dy, 0), _GRID - 1)
    return ny * _GRID + nx


def _quadrant(dx: int, dy: int) -> int:
    # Ties go north and east.
    ns = "N" if dy >= 0 else "S"
    ew = "E" if dx >= 0 else "W"
    return _QUADS.index(ns + ew)


def _quad_rows(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Noisy quadrant observation rows: 0.8 correct, 0.2 split over the rest."""
    n = dx.shape[0]
    rows = np.full((n, 4), 0.2 / 3.0)
    correct = np.fromiter(
        (_quadrant(int(a), int(b)) for a, b in zip(dx, dy)), dtype=int, count=n
    )
    rows[np.arange(n), correct] = 0.8
    return rows


def _uav_level0_fugitive(horizon: int) -> SingleAgentModel:
    """25-cell view of the fugitive alone: reach the safe corner.

    The safe cell is absorbing with reward 0; arrival pays +100 through the
    expected-reward encoding r(c, a) = -1 + 100 * P(next = safe | c, a),
    every other step costs 1.  Observations are the noisy quadrant of the
    safe house relative to the new cell, identical to the joint channel, so
    trees built against this model drive the fugitive in the joint game.
    """
    n = _GRID * _GRID
    A = len(_UAV_MOVES)
    T = np.zeros((n, A, n))
    R = np.zeros((n, A))
    for c in range(n):
        for a in range(A):
            if c == _SAFE:
                T[c, a, c] = 1.0
                continue
            t = _move_target(c, a)
            if t == c:
                T[c, a, c] = 1.0
            else:
                T[c, a, t] = 0.9
                T[c, a, c] = 0.1
            R[c, a] = -1.0 + 100.0 * T[c, a, _SAFE]

    cells = np.arange(n)
    dx = (_SAFE % _GRID) - (cells % _GRID)
    dy = (_SAFE // _GRID) - (cells // _GRID)
    Ob = np.repeat(_quad_rows(dx, dy)[:, None, :], A, axis=1)

    b0 = np.zeros(n)
    b0[(_GRID - 1) * _GRID + (_GRID - 1)] = 1.0  # corner opposite the safe house

    return SingleAgentModel(
        name="uav:level0:j",
        states=tuple(_cell_name(c) for c in range(n)),
        actions=_UAV_MOVES,
        observations=_QUADS,
        transition=T,
        obs_fn=Ob,
        reward=R,
        initial_belief=b0,
        horizon=horizon,
    )


def _uav_transition(ci: np.ndarray, cj: np.ndarray) -> JointTransition:
    """The uav joint table over the cell pairs (ci, cj) and three flags.

    Each action pair's entries are keyed s * S + s' and reduced on their
    own: no key spans two pairs.  bincount adds each key's weights in list
    order from 0.0, so moves that land on the same state sum as four
    successive += would.
    """
    n = _GRID * _GRID
    A = len(_UAV_MOVES)
    n_joint = n * n
    CAP, ESC, DONE = n_joint, n_joint + 1, n_joint + 2
    S = n_joint + 3
    tgt = np.array([[_move_target(c, a) for a in range(A)] for c in range(n)])
    src = np.arange(n_joint) * S
    flags = np.array([CAP, ESC, DONE]) * S + DONE
    keys, probs = [], []
    for ai in range(A):
        for aj in range(A):
            block, weights = [], []
            for nci, wi in ((tgt[ci, ai], 0.9), (ci, 0.1)):
                for ncj, wj in ((tgt[cj, aj], 0.9), (cj, 0.1)):
                    # Capture takes precedence over escape at the safe cell.
                    dest = np.where(
                        nci == ncj, CAP, np.where(ncj == _SAFE, ESC, nci * n + ncj)
                    )
                    block.append(src + dest)
                    weights.append(np.full(n_joint, wi * wj))
            block.append(flags)
            weights.append(np.ones(len(flags)))
            key, inverse = np.unique(np.concatenate(block), return_inverse=True)
            keys.append(key + (ai * A + aj) * S * S)
            probs.append(np.bincount(inverse, weights=np.concatenate(weights)))
    key = np.concatenate(keys)
    return JointTransition._from_sorted(key // S, key % S, np.concatenate(probs), (S, A, A, S))


def _build_uav(horizon: int) -> PosgDomain:
    """5x5 grid chase: chaser i starts at the center, fugitive j at the
    corner opposite the safe house.

    Joint states are chaser/fugitive cell pairs plus three flags: Captured
    (co-location, chaser +100 / fugitive -100), Escaped (fugitive on the
    safe cell, -100 / +100), and Done (absorbing, reward 0).  The flag
    states make the one-shot payoff a plain table lookup; every ordinary
    step costs 1.  Moves succeed with 0.9 (0.1 stay), walls block.  The
    chaser observes the fugitive's quadrant, the fugitive observes the
    safe house's quadrant, both at 0.8 accuracy.
    """
    n = _GRID * _GRID
    A = len(_UAV_MOVES)
    n_joint = n * n
    CAP, ESC, DONE = n_joint, n_joint + 1, n_joint + 2
    S = n_joint + 3
    pair = np.arange(n_joint)
    ci, cj = pair // n, pair % n
    # Built in a helper, so its temporaries are freed before the domain
    # validates the table.
    T = _uav_transition(ci, cj)

    # Observation rows depend on the landed state only.
    qi = np.full((S, 4), 0.25)
    qi[:n_joint] = _quad_rows((cj % _GRID) - (ci % _GRID), (cj // _GRID) - (ci // _GRID))
    Oi = np.broadcast_to(qi[:, None, None, :], (S, A, A, 4)).copy()

    qj = np.full((S, 4), 0.25)
    qj[:n_joint] = _quad_rows((_SAFE % _GRID) - (cj % _GRID), (_SAFE // _GRID) - (cj // _GRID))
    Oj = np.broadcast_to(qj[:, None, :], (S, A, 4)).copy()

    Ri = np.full((S, A, A), -1.0)
    Rj = np.full((S, A, A), -1.0)
    Ri[CAP], Rj[CAP] = 100.0, -100.0
    Ri[ESC], Rj[ESC] = -100.0, 100.0
    Ri[DONE], Rj[DONE] = 0.0, 0.0

    start = np.zeros(S)
    center = (_GRID // 2) * _GRID + (_GRID // 2)
    corner = (_GRID - 1) * _GRID + (_GRID - 1)
    start[center * n + corner] = 1.0

    names = tuple(
        "%s@%s" % (_cell_name(a), _cell_name(b)) for a in range(n) for b in range(n)
    ) + ("Captured", "Escaped", "Done")

    return PosgDomain(
        name="uav",
        states=names,
        actions_i=_UAV_MOVES,
        actions_j=_UAV_MOVES,
        observations_i=_QUADS,
        observations_j=_QUADS,
        transition=T,
        obs_fn_i=Oi,
        obs_fn_j=Oj,
        reward_i=Ri,
        reward_j=Rj,
        horizon=horizon,
        start=start,
        level0={"j": _uav_level0_fugitive(horizon)},
    )


_BUILDERS = {"tiger": _build_tiger, "uav": _build_uav}
_DEFAULT_HORIZON = 3

# The built-in domains somebody still holds, keyed by (name, horizon).  A
# weak memo adds no eviction policy and keeps nothing alive by itself.
_SHARED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def builtin_domain(name: str, horizon: int | None = None) -> PosgDomain:
    """The built-in domain ``name`` at ``horizon`` (default 3), shared.

    While any reference to the result is alive, the same name and horizon
    return the same object; after the last one is dropped, the next call
    builds it afresh.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            "unknown builtin domain %r (have: %s)"
            % (name, ", ".join(sorted(_BUILDERS)))
        ) from None
    key = (name, _DEFAULT_HORIZON if horizon is None else horizon)
    domain = _SHARED.get(key)
    if domain is None:
        domain = _SHARED[key] = builder(key[1])
    return domain


def builtin_tiger(horizon: int = _DEFAULT_HORIZON) -> PosgDomain:
    """The shared two-agent tiger game; see ``_build_tiger``."""
    return builtin_domain("tiger", horizon)


def builtin_uav(horizon: int = _DEFAULT_HORIZON) -> PosgDomain:
    """The shared 5x5 grid chase; see ``_build_uav``."""
    return builtin_domain("uav", horizon)


BUILTIN_DOMAINS = {"tiger": builtin_tiger, "uav": builtin_uav}


# ------------------------------------------------------------ projection ----

def project_level0(domain: PosgDomain, agent: str) -> SingleAgentModel:
    """Single-agent POMDP for one agent with the peer folded out.

    A prebuilt view on the domain wins when present.  Otherwise the peer's
    action is marginalized under a uniform distribution over the peer's
    declared actions.  The transition is summed from the joint table's
    stored entries in storage order, so each cell adds its peer actions in
    ascending order starting from zero: the floats of a dense einsum over
    the joint table, without building that table.
    """
    if agent not in ("i", "j"):
        raise ValueError("agent must be 'i' or 'j', got %r" % agent)
    if agent in domain.level0:
        return domain.level0[agent].replace(horizon=domain.horizon)

    peer_acts = domain.actions_j if agent == "i" else domain.actions_i
    w = np.full(len(peer_acts), 1.0 / len(peer_acts))

    joint = domain.transition
    S, n_ai, n_aj, _ = joint.shape
    s, ai, aj = joint._coords()
    own, peer = (aj, ai) if agent == "j" else (ai, aj)
    T = np.zeros((S, n_aj if agent == "j" else n_ai, S))
    np.add.at(T, (s, own, joint.indices), w[peer] * joint.data)
    if agent == "j":
        Ob = domain.obs_fn_j.copy()
        R = np.einsum("swa,a->sw", domain.reward_j, w)
        acts, obs = domain.actions_j, domain.observations_j
    else:
        Ob = np.einsum("w,sawo->sao", w, domain.obs_fn_i)
        R = np.einsum("saw,w->sa", domain.reward_i, w)
        acts, obs = domain.actions_i, domain.observations_i

    return SingleAgentModel(
        name="%s:level0:%s" % (domain.name, agent),
        states=domain.states,
        actions=acts,
        observations=obs,
        transition=T,
        obs_fn=Ob,
        reward=R,
        initial_belief=domain.start_distribution(),
        horizon=domain.horizon,
    )


def with_horizon(domain: PosgDomain, horizon: int) -> PosgDomain:
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    level0 = {k: m.replace(horizon=horizon) for k, m in domain.level0.items()}
    return dataclasses.replace(domain, horizon=horizon, level0=level0)


# ----------------------------------------------------------------- files ----

_LABELS = ("states", "actions_i", "actions_j", "observations_i", "observations_j")


def domain_to_obj(domain: PosgDomain) -> dict:
    """The JSON mapping of a domain; ``level0`` views are not written.

    ``transition`` is the list of stored [s, ai, aj, s', p] entries, in
    storage order: by row (ai, aj, s), then by column s'.
    """
    T = domain.transition
    columns = (*T._coords(), T.indices, T.data)
    obj = {name: list(getattr(domain, name)) for name in _LABELS}
    obj.update(
        name=domain.name,
        horizon=domain.horizon,
        transition=[list(e) for e in zip(*(c.tolist() for c in columns))],
        obs_i=domain.obs_fn_i.tolist(),
        obs_j=domain.obs_fn_j.tolist(),
        reward_i=domain.reward_i.tolist(),
        reward_j=domain.reward_j.tolist(),
    )
    if domain.start is not None:
        obj["start"] = domain.start.tolist()
    return obj


def domain_from_obj(obj: Mapping) -> PosgDomain:
    """The domain a ``domain_to_obj`` mapping describes, validated."""
    required = [
        "name", *_LABELS, "horizon", "transition", "obs_i", "obs_j", "reward_i", "reward_j"
    ]
    missing = [k for k in required if k not in obj]
    if missing:
        raise DomainValidationError("missing keys: %s" % ", ".join(missing))
    labels = {name: _check_labels(name, obj[name]) for name in _LABELS}
    entries = obj["transition"]
    if not isinstance(entries, list):
        raise DomainValidationError("transition: expected a list of entries")
    if entries and isinstance(entries[0], list) and any(isinstance(x, list) for x in entries[0]):
        raise DomainValidationError(
            "transition: a dense [s][ai][aj][s'] table, which is no longer read; "
            "write [s, ai, aj, s', p] entries"
        )
    S = len(labels["states"])
    shape = (S, len(labels["actions_i"]), len(labels["actions_j"]), S)
    return PosgDomain(
        name=str(obj["name"]),
        **labels,
        transition=JointTransition.from_entries(entries, shape),
        obs_fn_i=np.asarray(obj["obs_i"], dtype=float),
        obs_fn_j=np.asarray(obj["obs_j"], dtype=float),
        reward_i=np.asarray(obj["reward_i"], dtype=float),
        reward_j=np.asarray(obj["reward_j"], dtype=float),
        horizon=int(obj["horizon"]),
        start=None if "start" not in obj else np.asarray(obj["start"], dtype=float),
    )


def serialize_domain(domain: PosgDomain) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(domain_to_obj(domain), sort_keys=True, indent=2) + "\n"


def load_domain(path) -> PosgDomain:
    """Load a domain JSON file; ``domain_from_obj`` takes a parsed mapping."""
    return domain_from_obj(_read_json(path)[0])
