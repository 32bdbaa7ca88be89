"""Two-agent domains and single-agent projections.

A PosgDomain is a fully tabular two-agent partially observable stochastic
game from the point of view of a subject agent i interacting with a peer j.
Agent j's observation channel depends only on (next state, own action), which
is what lets j be modeled by an ordinary single-agent POMDP at level 0.

Builtins: a two-door tiger game with door creaks, and a 5x5 grid chase
between a chaser (i) and a fugitive (j) heading for a safe-house corner.

A domain's joint transition has one type:
``JointTransition``, the [S, Ai, Aj, S'] table as CSR arrays, 0.62 MB for
the uav chase instead of a 79 MB dense array.  A domain file lists its
entries.  A ``JointTransition``, a ``PosgDomain`` and a ``SingleAgentModel``
each run their check when built, so every table, domain and model that
exists has passed it.  Label lists are stored as tuples of strings.

The uav chase's ``obs_fn_i``, ``obs_fn_j``, ``reward_i`` and ``reward_j``
depend on the state only, so each is a read-only ``np.broadcast_to`` view of
one row per state.  Every reader indexes them as it would dense tables and
sums over a fresh product with ``np.add.reduce``, so a view and its dense
copy give the same floats.  A pickled domain (a spawn or forkserver pool
worker's) carries each view as its rows and is rebuilt with the same views.

A ``SingleAgentModel`` (``project_level0``) has one form: dense tables,
transition [S, A, S'], and dense beliefs.  Its ``expected_reward``,
``predict`` and ``condition`` are the interface the solver reads, and
``flattening.FlatModel`` offers the same three over sparse beliefs.

Built-in domains are shared read-only objects.  While any reference to one
is alive, ``builtin_domain`` returns that same object for the same name and
horizon, so a caller that holds the
domain lets grids and subcommands run in the same process reuse it instead
of rebuilding it.  Nothing may mutate a domain: its arrays are read-only and
``level0`` is a read-only mapping.
"""

from __future__ import annotations

import dataclasses
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .trees import _as_written, _check_keys, _check_symbols, _count, _json_text, _read_input

__all__ = [
    "DomainValidationError",
    "JointTransition",
    "SingleAgentModel",
    "PosgDomain",
    "builtin_domain",
    "BUILTIN_DOMAINS",
    "project_level0",
    "load_domain",
    "serialize_domain",
    "domain_from_obj",
    "domain_to_obj",
]

_TOL = 1e-12
_LABELS = ("states", "actions_i", "actions_j", "observations_i", "observations_j")
# Each domain file key's JSON kind; all but ``start`` are required.  The reader
# checks ``horizon``, and ``transition`` after the labels.
_DOMAIN_KINDS = dict(name=str, **dict.fromkeys(_LABELS, list), horizon=None, transition=None,
                     **dict.fromkeys(("obs_i", "obs_j", "reward_i", "reward_j", "start"), list))
# The most nodes a complete policy tree of either agent may have at a
# domain's horizon: tiger T=5 needs 1,555 for agent i, T=6 9,331; uav T=5
# needs 341, T=6 1,365 and T=7 5,461.  A horizon past it is refused before
# any tree is enumerated.
MAX_TREE_NODES = 2_000


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
    are contiguous.  ``from_entries`` stores only nonzero probabilities,
    columns ascending within a row; ``nnz`` counts every stored entry.
    Construction freezes the caller's arrays in place rather than copying
    them, then checks them: a row that is not a distribution or whose
    columns do not strictly ascend raises DomainValidationError naming it.
    Two tables are equal when their shapes and stored entries are.

    ``flattening.FannedRows``, the simulator and the level-0 projection (via
    ``_coords``) read the stored arrays.  One index form reads dense values,
    read-only: ``[:, ai, aj, :]`` is the [S, S'] block of one action pair,
    filled from that pair's stored rows.  Any other key raises IndexError,
    and ``np.asarray`` raises TypeError: nothing densifies the whole table.
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
        _check_csr("transition", self)

    def __reduce__(self):
        # Rebuild through __init__, so the arrays come back read-only.
        return JointTransition, (self.indptr, self.indices, self.data, self.shape)

    @classmethod
    def from_entries(cls, entries, shape) -> "JointTransition":
        """The table holding p at [s, ai, aj, s'] for each [s, ai, aj, s', p].

        Entries are stored by row (ai, aj, s), then by column s', and those
        with p == 0 are dropped.  An entry that is not five numbers, an index
        that is not an integer inside ``shape`` and a repeated (s, ai, aj, s')
        raise DomainValidationError naming the entry, and a bool or string
        in any entry one naming the value: numbers are read as written.
        The table built then checks its rows, as any ``JointTransition`` does.
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
        _as_written("transition", entries, DomainValidationError)
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
        indptr = np.zeros(Ai * Aj * S + 1, dtype=np.int64)
        np.cumsum(np.bincount(row[order], minlength=Ai * Aj * S), out=indptr[1:])
        return cls(indptr, col[order].astype(np.int32), arr[order, 4], shape)

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def _coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (s, ai, aj) of each stored entry, in storage order."""
        S, _, Aj, _ = self.shape
        pair, s = np.divmod(np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr)), S)
        return (s, *np.divmod(pair, Aj))

    def __getitem__(self, key) -> np.ndarray:
        S, Ai, Aj, S2 = self.shape
        whole = type(key) is tuple and len(key) == 4 and all(
            type(k) is slice and k == slice(None) for k in key[::3]
        )
        if not (whole and _is_index(key[1], Ai) and _is_index(key[2], Aj)):
            raise IndexError(
                "a JointTransition reads [:, ai, aj, :] with integers inside %r"
                % (self.shape,)
            )
        r0 = (key[1] * Aj + key[2]) * S
        ptr = self.indptr[r0 : r0 + S + 1]
        stored = slice(ptr[0], ptr[-1])
        out = np.zeros((S, S2))
        out[np.repeat(np.arange(S), np.diff(ptr)), self.indices[stored]] = self.data[stored]
        out.setflags(write=False)
        return out

    def __array__(self, dtype=None, copy=None):
        raise TypeError("a JointTransition is not densified; read [:, ai, aj, :]")

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
    Construction freezes the caller's arrays in place rather than copying
    them.  A model is valid once it exists: construction,
    ``dataclasses.replace`` and unpickling all run the model check, which
    raises DomainValidationError naming the table and row at fault.
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
        for name in ("states", "actions", "observations"):
            object.__setattr__(self, name, _check_labels(name, getattr(self, name)))
        for name in ("transition", "obs_fn", "reward", "initial_belief"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        _validate_model(self)

    def __reduce__(self):
        # Rebuild through __init__, so the arrays come back read-only.
        return SingleAgentModel, tuple(getattr(self, f.name) for f in dataclasses.fields(self))

    def expected_reward(self, b: np.ndarray, a: int) -> float:
        """Sum over states of b times the reward of action a."""
        return float(np.add.reduce(self.reward[:, a] * b))

    def predict(self, b: np.ndarray, a: int) -> np.ndarray:
        """The state distribution after action a from belief b."""
        return np.add.reduce(b[:, None] * self.transition[:, a, :], axis=0)

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


@dataclass(frozen=True, eq=False)
class PosgDomain:
    """Two-agent tabular game.

    Array layouts:
      transition [S, Ai, Aj, S'], obs_fn_i [S', Ai, Aj, Oi],
      obs_fn_j [S', Aj, Oj], reward_i [S, Ai, Aj], reward_j [S, Aj, Ai].
    ``transition`` is a JointTransition (see ``JointTransition.from_entries``);
    anything else raises DomainValidationError.
    ``start`` is the initial physical state distribution, always a
    read-only array: construction copies the one given, or builds the
    uniform distribution when it is None.
    ``level0`` optionally carries prebuilt single-agent views keyed by
    agent name ("i" or "j"), each over its agent's own actions and
    observations, each kept at the domain's horizon (so
    ``dataclasses.replace(domain, horizon=h)`` re-horizons them too);
    project_level0 returns these when present.
    Arrays and ``level0`` are read-only, so a domain can be shared.  The
    large tables are frozen in place rather than copied: a copy of the uav
    joint table would add 0.59 MiB to a build that peaks near 1.3 MiB.

    A domain is valid once it exists: construction, ``dataclasses.replace``
    and unpickling all run the domain check, which raises
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
        for name in _LABELS:
            object.__setattr__(self, name, _check_labels(name, getattr(self, name)))
        if not isinstance(self.transition, JointTransition):
            raise DomainValidationError(
                "transition: %s, expected a JointTransition"
                % type(self.transition).__name__
            )
        for name in ("obs_fn_i", "obs_fn_j", "reward_i", "reward_j"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        n = len(self.states)
        start = np.full(n, 1.0) / n if self.start is None else self.start
        object.__setattr__(self, "start", _freeze(np.array(start, dtype=float)))
        level0 = {
            k: m if m.horizon == self.horizon else dataclasses.replace(m, horizon=self.horizon)
            for k, m in self.level0.items()
        }
        object.__setattr__(self, "level0", MappingProxyType(level0))
        _validate_domain(self)

    def __reduce__(self):
        # A mappingproxy does not pickle, so rebuild through __init__ from
        # the fields with level0 as a dict.  A table that is a broadcast view
        # goes as the rows it views, so it is rebuilt as a view, not dense.
        kw = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        tables = {}
        for name in ("obs_fn_i", "obs_fn_j", "reward_i", "reward_j"):
            a = kw.pop(name)
            cut = tuple(slice(None) if st else slice(0, 1) for st in a.strides)
            tables[name] = (a[cut], a.shape)
        return _unpickle_domain, ({**kw, "level0": dict(self.level0)}, tables)


def _unpickle_domain(kw: dict, tables: dict) -> PosgDomain:
    views = {name: np.broadcast_to(rows, shape) for name, (rows, shape) in tables.items()}
    return PosgDomain(**kw, **views)


def _check_labels(path: str, labels: Sequence[str]) -> tuple[str, ...]:
    """The labels as a tuple: a non-empty list of distinct strings, none
    empty or holding a reserved character."""
    if not isinstance(labels, (list, tuple)):
        raise DomainValidationError("%s: %r is not a list" % (path, labels))
    tup = tuple(labels)
    for label in tup:
        if not isinstance(label, str):
            raise DomainValidationError("%s: label %r is not a string" % (path, label))
    if len(tup) == 0:
        raise DomainValidationError("%s: empty label list" % path)
    if len(set(tup)) != len(tup):
        raise DomainValidationError("%s: duplicate labels in %r" % (path, tup))
    try:
        _check_symbols(tup)
    except ValueError as exc:
        raise DomainValidationError("%s: %s" % (path, exc)) from exc
    return tup


def _check_rows(path: str, arr: np.ndarray, tol: float = _TOL) -> None:
    """Last axis must be a probability distribution on every row."""
    if not np.all(np.isfinite(arr)):
        raise DomainValidationError("%s: non-finite probability" % path)
    if np.any(arr < 0.0):
        raise DomainValidationError("%s: negative probability" % path)
    sums = arr.sum(axis=-1)
    bad = np.abs(sums - 1.0) > tol
    if np.any(bad):
        idx = tuple(int(k) for k in np.argwhere(bad)[0])
        raise DomainValidationError(
            "%s: row %r sums to %.17g, expected 1 within %g"
            % (path, idx, float(sums[bad][0]), tol)
        )


def _check_shape(path: str, arr: np.ndarray, shape: tuple[int, ...]) -> None:
    if arr.shape != shape:
        raise DomainValidationError(
            "%s: shape %r, expected %r" % (path, arr.shape, shape)
        )


def _check_csr(path: str, T: JointTransition) -> None:
    """CSR structure and row distributions of a joint table, against its own
    ``shape``; a ``PosgDomain`` checks that shape against its labels."""
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
    # Columns strictly ascend within a row, so no column is stored twice.
    # Entry k + 1 is compared with entry k unless it starts a row.
    bad = idx[1:] <= idx[:-1]
    starts = ptr[1:-1]
    bad[starts[(starts > 0) & (starts < len(idx))] - 1] = False
    if bad.any():
        k = int(np.flatnonzero(bad)[0]) + 1
        pair, s = divmod(int(np.searchsorted(ptr, k, side="right")) - 1, S)
        raise DomainValidationError(
            "%s[:, %d, %d]: row %d repeats or reorders column %d"
            % (path, *divmod(pair, Aj), s, int(idx[k]))
        )
    # Every row is a probability distribution, an empty one summing to 0.
    # The first action pair with a fault is named, and within it a
    # non-finite entry before a negative one before a bad sum.
    filled = ptr[1:] > ptr[:-1]
    bad = ~filled
    if filled.any():
        bad[filled] = np.abs(np.add.reduceat(dat, ptr[:-1][filled]) - 1.0) > _TOL
    entries = (np.flatnonzero(hit)[:1] for hit in (~np.isfinite(dat), dat < 0.0))
    first = [np.searchsorted(ptr, k, side="right") - 1 for k in entries]
    first.append(np.flatnonzero(bad)[:1])
    found = [(int(r[0]) // S, kind, int(r[0]) % S) for kind, r in enumerate(first) if r.size]
    if found:
        pair, kind, s = min(found)
        fault = ("non-finite probability", "negative probability", "row %d sums to %.17g")[kind]
        if kind == 2:
            # Reported as summed one entry at a time in storage order, since
            # reduceat may add a row's entries in another order.
            lo, hi = ptr[pair * S + s], ptr[pair * S + s + 1]
            fault %= (s, float(np.add.accumulate(np.r_[0.0, dat[lo:hi]])[-1]))
        raise DomainValidationError("%s[:, %d, %d]: %s" % (path, *divmod(pair, Aj), fault))


def _validate_model(m: SingleAgentModel) -> None:
    """Raise DomainValidationError naming the offending table and row."""
    S, A, O = len(m.states), len(m.actions), len(m.observations)
    _count("horizon", m.horizon, error=DomainValidationError)
    _check_shape("transition", m.transition, (S, A, S))
    _check_rows("transition", m.transition)
    _check_shape("obs_fn", m.obs_fn, (S, A, O))
    _check_rows("obs_fn", m.obs_fn)
    _check_shape("reward", m.reward, (S, A))
    if not np.all(np.isfinite(m.reward)):
        raise DomainValidationError("reward: non-finite entry")
    _check_shape("initial_belief", m.initial_belief, (S,))
    _check_rows("initial_belief", m.initial_belief)


def _check_tree_size(horizon: int, agent: str, n_obs: int) -> None:
    """Refuse a horizon whose complete policy trees exceed MAX_TREE_NODES,
    counting level by level so a huge horizon stops at the limit."""
    nodes, width, depth = 0, 1, 0
    while depth < horizon and nodes <= MAX_TREE_NODES:
        nodes, width, depth = nodes + width, width * n_obs, depth + 1
    if nodes > MAX_TREE_NODES:
        raise DomainValidationError(
            "horizon: %d gives agent %s complete policy trees of %s%d nodes, "
            "more than MAX_TREE_NODES = %d"
            % (horizon, agent, "" if depth == horizon else "at least ", nodes, MAX_TREE_NODES)
        )


def _validate_domain(d: PosgDomain) -> None:
    S, Ai, Aj, Oi, Oj = (len(getattr(d, k)) for k in _LABELS)
    horizon = _count("horizon", d.horizon, error=DomainValidationError)
    _check_tree_size(horizon, "i", Oi)
    _check_tree_size(horizon, "j", Oj)
    _check_shape("transition", d.transition, (S, Ai, Aj, S))
    _check_shape("obs_fn_i", d.obs_fn_i, (S, Ai, Aj, Oi))
    _check_rows("obs_fn_i", d.obs_fn_i)
    _check_shape("obs_fn_j", d.obs_fn_j, (S, Aj, Oj))
    _check_rows("obs_fn_j", d.obs_fn_j)
    _check_shape("reward_i", d.reward_i, (S, Ai, Aj))
    _check_shape("reward_j", d.reward_j, (S, Aj, Ai))
    for nm in ("reward_i", "reward_j"):
        if not np.all(np.isfinite(getattr(d, nm))):
            raise DomainValidationError("%s: non-finite entry" % nm)
    _check_shape("start", d.start, (S,))
    _check_rows("start", d.start)
    for agent, model in d.level0.items():
        if agent not in ("i", "j"):
            raise DomainValidationError("level0: unknown agent %r" % agent)
        want = (getattr(d, "actions_" + agent), getattr(d, "observations_" + agent))
        if (model.actions, model.observations) != want:
            raise DomainValidationError("level0: agent %s's view is over %r, not its %r" % (
                agent, (model.actions, model.observations), want))


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

    # [S, own action, peer action], the same for both agents.
    reward = np.zeros((S, A, A))
    for s in range(S):
        for a in range(A):
            reward[s, a, :] = -1.0 if a == LISTEN else -100.0 if a == s else 10.0

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
        reward_i=reward,
        reward_j=reward,
        horizon=horizon,
        start=np.array([0.5, 0.5]),
    )


# ------------------------------------------------------------------ uav ----

_GRID = 5
_CELLS = _GRID * _GRID
_SAFE = 0  # cell (0, 0)
_UAV_MOVES = ("N", "S", "E", "W", "Stay")
_QUADS = ("NE", "NW", "SE", "SW")  # at 2 * south + west, as _quad_rows reads it
# Joint state ci * _CELLS + cj puts the chaser on cell ci and the fugitive on
# cj; the three flag states follow the _CAP cell pairs.
_CAP, _ESC, _DONE = _CELLS**2, _CELLS**2 + 1, _CELLS**2 + 2


def _cell_name(c: int) -> str:
    return "X%dY%d" % (c % _GRID, c // _GRID)


def _move_targets() -> np.ndarray:
    """[cell, move] -> the cell the move leads to; a wall keeps the cell."""
    y, x = np.divmod(np.arange(_CELLS), _GRID)
    dx, dy = np.array([(0, 1), (0, -1), (1, 0), (-1, 0), (0, 0)]).T
    return np.clip(y[:, None] + dy, 0, _GRID - 1) * _GRID + np.clip(x[:, None] + dx, 0, _GRID - 1)


def _quad_rows(frm: np.ndarray, to) -> np.ndarray:
    """Noisy observation rows of the quadrant of cell ``to`` seen from each
    cell of ``frm``: 0.8 correct, 0.2 split over the rest.  Ties go north
    and east."""
    dx, dy = to % _GRID - frm % _GRID, to // _GRID - frm // _GRID
    rows = np.full((len(frm), 4), 0.2 / 3.0)
    rows[np.arange(len(frm)), 2 * (dy < 0) + (dx < 0)] = 0.8
    return rows


def _uav_level0_fugitive(horizon: int, tgt: np.ndarray, start: int) -> SingleAgentModel:
    """25-cell view of the fugitive alone, from cell ``start``: reach the
    safe corner, moving by the [cell, move] targets ``tgt``.

    The safe cell is absorbing with reward 0; arrival pays +100 through the
    expected-reward encoding r(c, a) = -1 + 100 * P(next = safe | c, a),
    every other step costs 1.  Observations are the noisy quadrant of the
    safe house relative to the new cell, identical to the joint channel, so
    trees built against this model drive the fugitive in the joint game.
    """
    A = len(_UAV_MOVES)
    cells = np.arange(_CELLS)
    T = np.zeros((_CELLS, A, _CELLS))
    T[cells, :, cells] = 1.0
    # Outside the safe cell, a move that no wall blocks lands with 0.9 and
    # stays with 0.1, written as such: 1 - 0.9 is 0.09999999999999998.
    c, a = np.nonzero((tgt != cells[:, None]) & (cells[:, None] != _SAFE))
    T[c, a, c] = 0.1
    T[c, a, tgt[c, a]] = 0.9
    R = -1.0 + 100.0 * T[:, :, _SAFE]
    R[_SAFE] = 0.0

    Ob = np.repeat(_quad_rows(cells, _SAFE)[:, None, :], A, axis=1)

    return SingleAgentModel(
        name="uav:level0:j",
        states=tuple(_cell_name(c) for c in range(_CELLS)),
        actions=_UAV_MOVES,
        observations=_QUADS,
        transition=T,
        obs_fn=Ob,
        reward=R,
        initial_belief=np.eye(_CELLS)[start],
        horizon=horizon,
    )


def _uav_transition(ci: np.ndarray, cj: np.ndarray, tgt: np.ndarray) -> JointTransition:
    """The uav joint table over the cell pairs (ci, cj) and three flags,
    moving by the [cell, move] targets ``tgt``.

    Each action pair's entries are keyed s * S + s' and reduced on their
    own: no key spans two pairs.  bincount adds each key's weights in list
    order from 0.0, so moves that land on the same state sum as four
    successive += would.  A pair keeps its row counts, int32 columns and
    probabilities, which concatenate in row order into the CSR arrays.
    """
    A = len(_UAV_MOVES)
    S = _DONE + 1
    src = np.arange(_CAP) * S
    flags = np.array([_CAP, _ESC, _DONE]) * S + _DONE
    counts, cols, probs = [], [], []
    for ai in range(A):
        for aj in range(A):
            block, weights = [], []
            for nci, wi in ((tgt[ci, ai], 0.9), (ci, 0.1)):
                for ncj, wj in ((tgt[cj, aj], 0.9), (cj, 0.1)):
                    # Capture takes precedence over escape at the safe cell.
                    dest = np.where(
                        nci == ncj, _CAP, np.where(ncj == _SAFE, _ESC, nci * _CELLS + ncj)
                    )
                    block.append(src + dest)
                    weights.append(np.full(_CAP, wi * wj))
            block.append(flags)
            weights.append(np.ones(len(flags)))
            key, inverse = np.unique(np.concatenate(block), return_inverse=True)
            counts.append(np.bincount(key // S, minlength=S))
            cols.append((key % S).astype(np.int32))
            probs.append(np.bincount(inverse, weights=np.concatenate(weights)))
    indptr = np.zeros(A * A * S + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    cols, probs = np.concatenate(cols), np.concatenate(probs)  # frees the pieces before the check
    return JointTransition(indptr, cols, probs, (S, A, A, S))


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
    A = len(_UAV_MOVES)
    S = _DONE + 1
    ci, cj = np.divmod(np.arange(_CAP), _CELLS)
    tgt = _move_targets()
    T = _uav_transition(ci, cj, tgt)

    # Observations and rewards depend on the state only, so each table is
    # a read-only view of its per-state rows, stored once.
    qi = np.full((S, 4), 0.25)
    qi[:_CAP] = _quad_rows(ci, cj)
    qj = np.full((S, 4), 0.25)
    qj[:_CAP] = _quad_rows(cj, _SAFE)
    ri = np.full(S, -1.0)
    rj = np.full(S, -1.0)
    ri[_CAP], rj[_CAP] = 100.0, -100.0
    ri[_ESC], rj[_ESC] = -100.0, 100.0
    ri[_DONE], rj[_DONE] = 0.0, 0.0
    Oi = np.broadcast_to(qi[:, None, None, :], (S, A, A, 4))
    Oj = np.broadcast_to(qj[:, None, :], (S, A, 4))
    Ri = np.broadcast_to(ri[:, None, None], (S, A, A))
    Rj = np.broadcast_to(rj[:, None, None], (S, A, A))

    center = (_GRID // 2) * _GRID + (_GRID // 2)
    corner = _CELLS - 1  # opposite the safe house
    start = np.zeros(S)
    start[center * _CELLS + corner] = 1.0

    names = tuple(
        "%s@%s" % (_cell_name(a), _cell_name(b)) for a in range(_CELLS) for b in range(_CELLS)
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
        level0={"j": _uav_level0_fugitive(horizon, tgt, corner)},
    )


# Each built-in's builder by name; ``builtin_domain`` shares what they build.
BUILTIN_DOMAINS = {"tiger": _build_tiger, "uav": _build_uav}

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
        builder = BUILTIN_DOMAINS[name]
    except KeyError:
        raise KeyError(
            "unknown builtin domain %r (have: %s)"
            % (name, ", ".join(sorted(BUILTIN_DOMAINS)))
        ) from None
    # Checked first: 3.0 and True would find the shared 3 and 1 by hash.
    key = (name, 3 if horizon is None else _count("horizon", horizon, error=DomainValidationError))
    domain = _SHARED.get(key)
    if domain is None:
        domain = _SHARED[key] = builder(key[1])
    return domain


# ------------------------------------------------------------ projection ----

def project_level0(domain: PosgDomain, agent: str) -> SingleAgentModel:
    """Single-agent POMDP for one agent with the peer folded out.

    A prebuilt view on the domain is returned itself when present.  Otherwise
    the peer's action is marginalized under a uniform distribution over the
    peer's declared actions.  The transition is summed from the joint table's
    stored entries in storage order, so each cell adds its peer actions in
    ascending order starting from zero, without building the dense table.
    """
    if agent not in ("i", "j"):
        raise ValueError("agent must be 'i' or 'j', got %r" % agent)
    if agent in domain.level0:
        return domain.level0[agent]

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
        R = np.add.reduce(domain.reward_j * w, axis=2)
        acts, obs = domain.actions_j, domain.observations_j
    else:
        Ob = np.add.reduce(domain.obs_fn_i * w[:, None], axis=2)
        R = np.add.reduce(domain.reward_i * w, axis=2)
        acts, obs = domain.actions_i, domain.observations_i

    return SingleAgentModel(
        name="%s:level0:%s" % (domain.name, agent),
        states=domain.states,
        actions=acts,
        observations=obs,
        transition=T,
        obs_fn=Ob,
        reward=R,
        initial_belief=domain.start,
        horizon=domain.horizon,
    )


# ----------------------------------------------------------------- files ----


def domain_to_obj(domain: PosgDomain) -> dict:
    """The JSON mapping of a domain; ``level0`` views are not written.

    ``transition`` is the list of stored [s, ai, aj, s', p] entries, in
    storage order: by row (ai, aj, s), then by column s'.
    """
    T = domain.transition
    columns = (*T._coords(), T.indices, T.data)
    return dict(
        {name: list(getattr(domain, name)) for name in _LABELS},
        name=domain.name,
        horizon=domain.horizon,
        transition=[list(e) for e in zip(*(c.tolist() for c in columns))],
        obs_i=domain.obs_fn_i.tolist(),
        obs_j=domain.obs_fn_j.tolist(),
        reward_i=domain.reward_i.tolist(),
        reward_j=domain.reward_j.tolist(),
        start=domain.start.tolist(),
    )


def domain_from_obj(obj: dict) -> PosgDomain:
    """The domain a ``domain_to_obj`` mapping describes, validated.  Nothing
    is coerced: the name is a non-empty string, each label list and table a
    list, and no number is a bool or a string."""
    required = [key for key in _DOMAIN_KINDS if key != "start"]
    _check_keys("domain file", obj, _DOMAIN_KINDS, required, DomainValidationError)
    labels = {name: _check_labels(name, obj[name]) for name in _LABELS}
    entries = obj["transition"]
    if not isinstance(entries, list):
        raise DomainValidationError("transition: expected a list of entries")
    horizon = _count("horizon", obj["horizon"], error=DomainValidationError)
    if not obj["name"]:
        raise DomainValidationError("name: '' is not a non-empty string")
    S = len(labels["states"])
    shape = (S, len(labels["actions_i"]), len(labels["actions_j"]), S)

    def table(key):
        return np.asarray(_as_written(key, obj[key], DomainValidationError), dtype=float)

    return PosgDomain(
        name=obj["name"],
        **labels,
        transition=JointTransition.from_entries(entries, shape),
        obs_fn_i=table("obs_i"),
        obs_fn_j=table("obs_j"),
        reward_i=table("reward_i"),
        reward_j=table("reward_j"),
        horizon=horizon,
        start=table("start") if "start" in obj else None,
    )


def serialize_domain(domain: PosgDomain) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return _json_text(domain_to_obj(domain))


def load_domain(path) -> PosgDomain:
    """Load a domain JSON file; ``domain_from_obj`` takes a parsed mapping."""
    return _read_input(path, domain_from_obj)[0]
