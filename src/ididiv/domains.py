"""Two-agent domains and single-agent projections.

A PosgDomain is a fully tabular two-agent partially observable stochastic
game from the point of view of a subject agent i interacting with a peer j.
Agent j's observation channel depends only on (next state, own action), which
is what lets j be modeled by an ordinary single-agent POMDP at level 0.

Builtins: a two-door tiger game with door creaks, and a 5x5 grid chase
between a chaser (i) and a fugitive (j) heading for a safe-house corner.

A domain's joint transition is held in one compact form,
``JointTransition``: the [S, Ai, Aj, S'] table as CSR rows, which for the
uav chase is 0.62 MB instead of a 79 MB dense array.

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
import operator
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .trees import _check_symbols

__all__ = [
    "DomainValidationError",
    "SparseRows",
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


def _row_entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the CSR entries of ``rows``, row after row, and each row's count."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    ends = np.cumsum(lens)
    k = np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lens, lens)
    return k, lens


@dataclass(frozen=True, eq=False)
class SparseRows:
    """An [S, S'] matrix in compressed sparse row form, for ``b @ M``.

    Row r holds ``data[indptr[r]:indptr[r + 1]]`` at the columns
    ``indices[indptr[r]:indptr[r + 1]]``.  Explicit zeros are entries like
    any other and count towards ``nnz``.  Construction does not check the
    structure; ``validate_model`` does.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    # ndarray defers ``b @ M`` to __rmatmul__ instead of broadcasting.
    __array_ufunc__ = None

    def __post_init__(self) -> None:
        for name in ("indptr", "indices"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "data", _freeze(self.data))
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def __reduce__(self):
        # Rebuild through __init__, so the arrays come back read-only.
        return SparseRows, (self.indptr, self.indices, self.data, self.shape)

    def __rmatmul__(self, b) -> np.ndarray:
        """Row vector times matrix over the rows where b is nonzero.

        Each output entry gets at most one term per source row, added in
        ascending row order from 0.0, so the sum is the one a CSR
        row-vector product computes; the skipped rows add only +0.0.
        """
        b = np.asarray(b, dtype=float)
        rows = np.flatnonzero(b)
        k, lens = _row_entries(self.indptr, rows)
        weights = self.data[k] * np.repeat(b[rows], lens)
        return np.bincount(self.indices[k], weights=weights, minlength=self.shape[1])


def _csr(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape) -> SparseRows:
    """SparseRows of entries sorted by row, then by column, with int32 columns."""
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return SparseRows(indptr, cols.astype(np.int32), vals, shape)


@dataclass(frozen=True, eq=False)
class JointTransition:
    """A two-agent transition table [S, Ai, Aj, S'] held as CSR rows.

    ``rows`` is one SparseRows of shape [Ai * Aj * S, S'] whose row
    ``(ai * Aj + aj) * S + s`` is P(. | s, ai, aj), so the rows of one action
    pair form the contiguous [S, S'] ``block(ai, aj)``.  Only nonzero
    probabilities are stored, columns ascending within a row.  Two tables
    are equal when their shapes and stored entries are.

    Basic numpy indexing on the [S, Ai, Aj, S'] layout (integers, slices,
    ``...``) returns a read-only dense ndarray of the addressed entries
    only: ``[:, ai, aj, :]`` builds one [S, S'] block and ``[s, ai, aj]``
    one row.  ``np.asarray`` densifies the whole table.  Assignment raises
    ValueError.
    """

    rows: SparseRows
    shape: tuple[int, int, int, int]

    # No ufunc or arithmetic densifies the table behind the caller's back.
    __array_ufunc__ = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))

    @classmethod
    def from_dense(cls, table) -> "JointTransition":
        """Compress a dense [S, Ai, Aj, S'] table, keeping its nonzeros."""
        t = np.asarray(table, dtype=float)
        if t.ndim != 4:
            raise DomainValidationError(
                "transition: shape %r, expected [S, Ai, Aj, S']" % (t.shape,)
            )
        flat = t.transpose(1, 2, 0, 3).reshape(-1, t.shape[3])
        r, c = np.nonzero(flat)
        return cls(_csr(r, c, flat[r, c], flat.shape), t.shape)

    @property
    def nbytes(self) -> int:
        m = self.rows
        return m.indptr.nbytes + m.indices.nbytes + m.data.nbytes

    def block(self, ai: int, aj: int) -> SparseRows:
        """The [S, S'] rows of action pair (ai, aj), sharing this table's arrays."""
        S, Ai, Aj, S2 = self.shape
        if not (0 <= ai < Ai and 0 <= aj < Aj):
            raise IndexError("action pair (%d, %d) outside [%d, %d)" % (ai, aj, Ai, Aj))
        r0 = (ai * Aj + aj) * S
        ptr = self.rows.indptr[r0 : r0 + S + 1]
        lo, hi = ptr[0], ptr[-1]
        return SparseRows(ptr - lo, self.rows.indices[lo:hi], self.rows.data[lo:hi], (S, S2))

    def _gather(self, s, ai, aj, dest) -> np.ndarray:
        """Dense [len(s), len(ai), len(aj), len(dest)] array of the picked entries."""
        S, _, Aj, S2 = self.shape
        rows = ((ai[:, None] * Aj + aj)[None] * S + s[:, None, None]).ravel()
        k, lens = _row_entries(self.rows.indptr, rows)
        col = np.full(S2, -1)
        col[dest] = np.arange(len(dest))
        pos = col[self.rows.indices[k]]
        hit = pos >= 0
        out = np.zeros((len(rows), len(dest)))
        out[np.repeat(np.arange(len(rows)), lens)[hit], pos[hit]] = self.rows.data[k[hit]]
        return out.reshape(len(s), len(ai), len(aj), len(dest))

    def _picks(self, key) -> tuple[list[np.ndarray], tuple]:
        """Per-axis positions a basic index picks, and how to drop integer axes."""
        key = key if isinstance(key, tuple) else (key,)
        ellipses = [n for n, k in enumerate(key) if k is Ellipsis]
        if len(ellipses) > 1:
            raise IndexError("an index can only have a single ellipsis ('...')")
        if ellipses:
            n = ellipses[0]
            key = key[:n] + (slice(None),) * (5 - len(key)) + key[n + 1 :]
        if len(key) > 4:
            raise IndexError("too many indices for a [S, Ai, Aj, S'] table")
        key = key + (slice(None),) * (4 - len(key))
        picks, keep = [], []
        for k, n in zip(key, self.shape):
            if isinstance(k, slice):
                picks.append(np.arange(n)[k])
                keep.append(slice(None))
                continue
            if isinstance(k, (bool, np.bool_)):
                raise IndexError("boolean indices are not supported")
            try:
                i = operator.index(k)
            except TypeError:
                raise IndexError(
                    "only integers, slices and ... index a JointTransition"
                ) from None
            if not -n <= i < n:
                raise IndexError("index %d is out of bounds for axis with size %d" % (i, n))
            picks.append(np.array([i % n]))
            keep.append(0)
        return picks, tuple(keep)

    def __getitem__(self, key):
        S, _, Aj, S2 = self.shape
        if (
            type(key) is tuple
            and len(key) == 3
            and all(type(k) is int and 0 <= k < n for k, n in zip(key, self.shape))
        ):
            # One row, the simulator's step, without the general gather.
            r = (key[1] * Aj + key[2]) * S + key[0]
            lo, hi = self.rows.indptr[r], self.rows.indptr[r + 1]
            out = np.zeros(S2)
            out[self.rows.indices[lo:hi]] = self.rows.data[lo:hi]
        else:
            picks, keep = self._picks(key)
            out = self._gather(*picks)[keep]
        if isinstance(out, np.ndarray):
            out.setflags(write=False)
        return out

    def __setitem__(self, key, value) -> None:
        raise ValueError("assignment destination is read-only")

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = self._gather(*(np.arange(n) for n in self.shape))
        return out if dtype is None else out.astype(dtype, copy=False)

    def __eq__(self, other):
        if not isinstance(other, JointTransition):
            return NotImplemented
        a, b = self.rows, other.rows
        return self.shape == other.shape and all(
            np.array_equal(x, y)
            for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data))
        )


@dataclass(frozen=True, eq=False)
class SingleAgentModel:
    """Finite-horizon tabular POMDP.

    Parameters
    ----------
    transition : ndarray [S, A, S'] or tuple of SparseRows, one [S, S'] per action
        Row-stochastic per (s, a).  Level-0 models (``project_level0``) are
        dense; flattened models (``flattening.flatten``) are SparseRows.
        ``transition_matrix`` hides the difference.
    obs_fn : ndarray [S', A, O]
        Probability of each observation after landing in s' under action a.
    reward : ndarray [S, A]
    initial_belief : ndarray [S]
    horizon : int
        Number of decisions; policy trees for this model have this depth.
    """

    name: str
    states: tuple[str, ...]
    actions: tuple[str, ...]
    observations: tuple[str, ...]
    transition: object
    obs_fn: np.ndarray
    reward: np.ndarray
    initial_belief: np.ndarray
    horizon: int

    def __post_init__(self) -> None:
        if not self.is_sparse:
            object.__setattr__(self, "transition", _freeze(self.transition))
        object.__setattr__(self, "obs_fn", _freeze(self.obs_fn))
        object.__setattr__(self, "reward", _freeze(self.reward))
        object.__setattr__(self, "initial_belief", _freeze(self.initial_belief))

    @property
    def is_sparse(self) -> bool:
        return isinstance(self.transition, tuple)

    def transition_matrix(self, a: int):
        """The [S, S'] operator for action index a; supports b @ M."""
        if self.is_sparse:
            return self.transition[a]
        return self.transition[:, a, :]

    def replace(self, **kw) -> "SingleAgentModel":
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True, eq=False)
class PosgDomain:
    """Two-agent tabular game.

    Array layouts:
      transition [S, Ai, Aj, S'], obs_fn_i [S', Ai, Aj, Oi],
      obs_fn_j [S', Aj, Oj], reward_i [S, Ai, Aj], reward_j [S, Aj, Ai].
    ``transition`` is always a JointTransition; a dense array passed in is
    compressed on construction, and indexing it still reads dense entries.
    ``start`` is the initial physical state distribution (uniform if None).
    ``level0`` optionally carries prebuilt single-agent views keyed by
    agent name ("i" or "j"); project_level0 returns these when present.
    Arrays and ``level0`` are read-only, so a domain can be shared.
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
            object.__setattr__(self, "transition", JointTransition.from_dense(self.transition))
        for name in ("obs_fn_i", "obs_fn_j", "reward_i", "reward_j"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        if self.start is not None:
            object.__setattr__(self, "start", _freeze(self.start))
        object.__setattr__(self, "level0", MappingProxyType(dict(self.level0)))

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


def _check_sparse_rows(path: str, blk: SparseRows, shape: tuple[int, int]) -> None:
    """Shape, CSR structure, and stochastic rows of one sparse [R, S] block."""
    if not isinstance(blk, SparseRows):
        raise DomainValidationError(
            "%s: %s, expected SparseRows" % (path, type(blk).__name__)
        )
    if blk.shape != shape:
        raise DomainValidationError(
            "%s: shape %r, expected %r" % (path, blk.shape, shape)
        )
    R, S = shape
    ptr, idx, dat = blk.indptr, blk.indices, blk.data
    if ptr.dtype.kind not in "iu" or idx.dtype.kind not in "iu":
        raise DomainValidationError("%s: indptr and indices must be integers" % path)
    if ptr.shape != (R + 1,) or ptr[0] != 0 or ptr[-1] != len(idx):
        raise DomainValidationError(
            "%s: indptr must have length %d, start at 0 and end at nnz %d"
            % (path, R + 1, len(idx))
        )
    if np.any(np.diff(ptr) < 0):
        raise DomainValidationError("%s: indptr decreases" % path)
    if idx.size and (idx.min() < 0 or idx.max() >= S):
        raise DomainValidationError("%s: column index outside [0, %d)" % (path, S))
    if dat.shape != idx.shape:
        raise DomainValidationError(
            "%s: %d data entries for %d indices" % (path, len(dat), len(idx))
        )
    if not np.all(np.isfinite(dat)):
        raise DomainValidationError("%s: non-finite probability" % path)
    if dat.size and dat.min() < -_TOL:
        raise DomainValidationError("%s: negative probability" % path)
    row_of = np.repeat(np.arange(R), np.diff(ptr))
    sums = np.bincount(row_of, weights=dat, minlength=R)
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
    if m.is_sparse:
        if len(m.transition) != A:
            raise DomainValidationError(
                "transition: %d sparse blocks, expected %d" % (len(m.transition), A)
            )
        for a, blk in enumerate(m.transition):
            _check_sparse_rows("transition[%d]" % a, blk, (S, S))
    else:
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
    n_rows = Ai * Aj * S
    if T.rows.shape != (n_rows, S) or T.rows.indptr.shape != (n_rows + 1,):
        raise DomainValidationError(
            "transition: rows of shape %r with %d pointers, expected %r with %d"
            % (T.rows.shape, len(T.rows.indptr), (n_rows, S), n_rows + 1)
        )
    for ai in range(Ai):
        for aj in range(Aj):
            _check_sparse_rows("transition[:, %d, %d]" % (ai, aj), T.block(ai, aj), (S, S))
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
    T = np.zeros((S, A, A, S))
    for ai in range(A):
        for aj in range(A):
            if ai == LISTEN and aj == LISTEN:
                T[:, ai, aj, :] = np.eye(S)
            else:
                T[:, ai, aj, :] = 0.5

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

    tgt = np.array([[_move_target(c, a) for a in range(A)] for c in range(n)])

    # Entries keyed ((ai * A + aj) * S + s) * S + s'.  bincount adds each
    # key's weights in list order from 0.0, so moves that land on the same
    # state sum as four successive += would.
    pair = np.arange(n_joint)
    ci, cj = pair // n, pair % n
    keys, weights = [], []
    for ai in range(A):
        for aj in range(A):
            for nci, wi in ((tgt[ci, ai], 0.9), (ci, 0.1)):
                for ncj, wj in ((tgt[cj, aj], 0.9), (cj, 0.1)):
                    # Capture takes precedence over escape at the safe cell.
                    dest = np.where(
                        nci == ncj, CAP, np.where(ncj == _SAFE, ESC, nci * n + ncj)
                    )
                    keys.append(((ai * A + aj) * S + pair) * S + dest)
                    weights.append(np.full(n_joint, wi * wj))
    flags = (np.arange(A * A)[:, None] * S + np.array([CAP, ESC, DONE])).ravel()
    keys.append(flags * S + DONE)
    weights.append(np.ones(len(flags)))
    key, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    prob = np.bincount(inverse, weights=np.concatenate(weights))
    T = JointTransition(_csr(key // S, key % S, prob, (A * A * S, S)), (S, A, A, S))

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
    declared actions.  The transition is summed from each action pair's
    stored entries in peer-action order, starting from zeros: the floats of
    a dense einsum over the joint table, without building that table.
    """
    if agent not in ("i", "j"):
        raise ValueError("agent must be 'i' or 'j', got %r" % agent)
    if agent in domain.level0:
        return domain.level0[agent].replace(horizon=domain.horizon)

    peer_acts = domain.actions_j if agent == "i" else domain.actions_i
    w = np.full(len(peer_acts), 1.0 / len(peer_acts))

    S = len(domain.states)
    n_ai, n_aj = len(domain.actions_i), len(domain.actions_j)
    T = np.zeros((S, n_aj if agent == "j" else n_ai, S))
    for ai in range(n_ai):
        for aj in range(n_aj):
            own, peer = (aj, ai) if agent == "j" else (ai, aj)
            blk = domain.transition.block(ai, aj)
            rows = np.repeat(np.arange(S), np.diff(blk.indptr))
            T[rows, own, blk.indices] += w[peer] * blk.data
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

def domain_to_obj(domain: PosgDomain) -> dict:
    obj = {
        "name": domain.name,
        "states": list(domain.states),
        "actions_i": list(domain.actions_i),
        "actions_j": list(domain.actions_j),
        "observations_i": list(domain.observations_i),
        "observations_j": list(domain.observations_j),
        "horizon": domain.horizon,
        "transition": np.asarray(domain.transition).tolist(),
        "obs_i": domain.obs_fn_i.tolist(),
        "obs_j": domain.obs_fn_j.tolist(),
        "reward_i": domain.reward_i.tolist(),
        "reward_j": domain.reward_j.tolist(),
    }
    if domain.start is not None:
        obj["start"] = domain.start.tolist()
    return obj


def domain_from_obj(obj: Mapping) -> PosgDomain:
    required = [
        "name", "states", "actions_i", "actions_j", "observations_i",
        "observations_j", "horizon", "transition", "obs_i", "obs_j",
        "reward_i", "reward_j",
    ]
    missing = [k for k in required if k not in obj]
    if missing:
        raise DomainValidationError("missing keys: %s" % ", ".join(missing))
    domain = PosgDomain(
        name=str(obj["name"]),
        states=tuple(obj["states"]),
        actions_i=tuple(obj["actions_i"]),
        actions_j=tuple(obj["actions_j"]),
        observations_i=tuple(obj["observations_i"]),
        observations_j=tuple(obj["observations_j"]),
        transition=np.asarray(obj["transition"], dtype=float),
        obs_fn_i=np.asarray(obj["obs_i"], dtype=float),
        obs_fn_j=np.asarray(obj["obs_j"], dtype=float),
        reward_i=np.asarray(obj["reward_i"], dtype=float),
        reward_j=np.asarray(obj["reward_j"], dtype=float),
        horizon=int(obj["horizon"]),
        start=None if "start" not in obj else np.asarray(obj["start"], dtype=float),
    )
    validate_domain(domain)
    return domain


def serialize_domain(domain: PosgDomain) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(domain_to_obj(domain), sort_keys=True, indent=2) + "\n"


def load_domain(path) -> PosgDomain:
    """Load a domain JSON file; ``domain_from_obj`` takes a parsed mapping."""
    return domain_from_obj(json.loads(Path(path).read_text()))
