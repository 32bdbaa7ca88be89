"""Policy trees and behavior sequences.

A policy tree of depth T prescribes an action at the root and, for every
observation, a subtree of depth T-1.  Walking root to leaf yields a behavior
sequence: T actions interleaved with T-1 observations.  Trees are complete:
every non-leaf node has exactly one child per observation symbol, in the
declared observation order.

A ``PolicyTree`` is its preorder action row and its observation alphabet;
there is no other tree form.  All complete trees of one (n_obs, depth)
share their nodes, numbered in preorder: ``node_table`` gives each node's
level, parent, children and root path.  Prefixes, frames, the canonical
encoding, diversity counts, matrix columns, flattening, the solver and the
simulator read this layout and the row.

``_csv_line`` is the one CSV line writer, for grid results, diversity
reports, behavior matrices and episode steps, and ``_csv_text`` a header
plus its lines.  Byte-identical replay rests on its one rule: a float cell
is written with ``repr``, every other cell with ``str``.  ``_json_text`` is
the one JSON writer.  ``_read_input`` is the one reading of an input file (a
domain, candidate set, grid config or manifest): it parses, builds and
hashes the same bytes, and its errors start with the path.
``_as_written`` is the one rule for the numbers in such a file: a bool or a
string where a number belongs is refused, never converted.  ``_integer`` is
the one rule for an integer, and ``_count`` for a count, a horizon included.
``_check_keys`` is the one rule for an input file's keys and their JSON kinds.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "BehaviorSequence",
    "PolicyTree",
    "TreeShapeError",
    "NodeTable",
    "node_table",
    "prefix_ids",
    "validate_tree",
    "sequence_at",
    "frame",
    "canonical_encode",
    "canonical_parse",
    "constant_tree",
    "all_trees",
    "count_trees",
    "count_tree_nodes",
]

# Separators used by the canonical encoding.  Symbol identifiers must avoid them.
_RESERVED = ";,|/"


class TreeShapeError(ValueError):
    """A tree violates completeness, depth, or labeling requirements."""


@dataclass(frozen=True)
class BehaviorSequence:
    """t actions interleaved with t-1 observations, as parallel tuples."""

    actions: tuple[str, ...]
    observations: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.actions) == 0:
            raise ValueError("behavior sequence needs at least one action")
        if len(self.observations) != len(self.actions) - 1:
            raise ValueError(
                "expected %d observations for %d actions, got %d"
                % (len(self.actions) - 1, len(self.actions), len(self.observations))
            )

    @property
    def length(self) -> int:
        return len(self.actions)

    def compact(self) -> str:
        """Slash-joined interleaving: a1/o1/a2/o2/.../at."""
        pairs = zip(self.observations, self.actions[1:])
        return "/".join(itertools.chain(self.actions[:1], *pairs))


@dataclass(frozen=True)
class PolicyTree:
    """A complete policy tree: its actions in preorder and the observation
    alphabet it branches on.

    Preorder visits a node, then its subtrees in declared observation order,
    so each subtree is a contiguous slice of the row and the depth follows
    from the row's length: a length that no complete tree over these
    observations has raises TreeShapeError.  A leaf keeps no observations,
    so leaves of one action are equal whatever alphabet they were given.
    ``action`` and ``children`` are read-only views of the row for code that
    walks nodes, as the benchmark's tracer and planner check do.
    """

    preorder: tuple[str, ...]
    observations: tuple[str, ...] = ()
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        row, obs = tuple(self.preorder), tuple(self.observations)
        depth, n = 1, 1
        while n < len(row) and obs:
            depth += 1
            n = count_tree_nodes(len(obs), depth)
        if n != len(row):
            raise TreeShapeError(
                "a preorder of %d actions is not a complete tree over %d observations"
                % (len(row), len(obs))
            )
        object.__setattr__(self, "preorder", row)
        object.__setattr__(self, "observations", obs if depth > 1 else ())
        object.__setattr__(self, "depth", depth)

    @property
    def action(self) -> str:
        return self.preorder[0]

    @property
    def children(self) -> tuple[tuple[str, "PolicyTree"], ...]:
        """Each observation with its subtree, in declared order; () at a leaf."""
        row, obs = self.preorder, self.observations
        size = (len(row) - 1) // len(obs) if obs else 0
        return tuple(
            (o, PolicyTree(row[1 + k * size:1 + (k + 1) * size], obs)) for k, o in enumerate(obs)
        )


class NodeTable(NamedTuple):
    """Preorder layout shared by every complete tree of one (n_obs, depth).

    Node 0 is the root, at ``level`` 0.  ``parent`` and ``branch`` (the
    observation index leading to a node) are -1 at the root, ``children``
    [v, o] is -1 at leaves, and ``path[v]`` runs from the root down to v.
    """

    level: np.ndarray
    parent: np.ndarray
    children: np.ndarray
    branch: np.ndarray
    path: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def node_table(n_obs: int, depth: int) -> NodeTable:
    """The preorder layout of complete trees with this shape, built once."""
    n = count_tree_nodes(n_obs, depth)
    level = np.zeros(n, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    children = np.full((n, n_obs), -1, dtype=np.int64)
    branch = np.full(n, -1, dtype=np.int64)
    path: list[tuple[int, ...]] = []
    stack = [(-1, -1)]
    while stack:
        par, o = stack.pop()
        v = len(path)
        path.append((path[par] if par >= 0 else ()) + (v,))
        if par >= 0:
            level[v] = level[par] + 1
            parent[v], branch[v], children[par, o] = par, o, v
        if level[v] + 1 < depth:
            stack.extend((v, k) for k in reversed(range(n_obs)))
    for arr in (level, parent, children, branch):
        arr.setflags(write=False)
    return NodeTable(level, parent, children, branch, tuple(path))


def _table_of(tree: PolicyTree) -> NodeTable:
    return node_table(len(tree.observations), tree.depth)


def prefix_ids(trees: Sequence[PolicyTree]) -> tuple[NodeTable, np.ndarray]:
    """The shared layout of same-shape trees and their prefix ids.

    ``ids[k, v]`` numbers the behavior prefix from the root to preorder node
    v of tree k by first appearance (trees in order, nodes in preorder), so
    equal ids mean equal prefixes.  A tree's ids on level t-1 fix its depth-t
    frame: every node above that level is an ancestor of one on it.
    """
    shapes = {(t.depth, t.observations) for t in trees}
    if len(shapes) != 1:
        raise ValueError("trees need one depth and one observation alphabet: %r" % shapes)
    ((depth, obs),) = shapes
    table = node_table(len(obs), depth)
    # A prefix is its parent's prefix (earlier in preorder), position and action.
    parent = table.parent.tolist()
    seen: dict[tuple[int, int, str], int] = {}
    ids = []
    for tree in trees:
        row: list[int] = []
        for v, a in enumerate(tree.preorder):
            row.append(seen.setdefault((row[parent[v]] if v else -1, v, a), len(seen)))
        ids.append(row)
    return table, np.array(ids, dtype=np.int64)


def validate_tree(
    tree: PolicyTree,
    observations: Iterable[str],
    depth: int | None = None,
    actions: Iterable[str] | None = None,
) -> None:
    """Raise TreeShapeError unless the tree branches on ``observations``, in
    that exact order (a leaf branches on none), and, when they are given,
    has depth ``depth`` and takes only ``actions``.  Completeness holds by
    construction.
    """
    obs = tuple(observations)
    d = tree.depth
    if depth is not None and d != depth:
        raise TreeShapeError("tree depth %d, expected %d" % (d, depth))
    if d > 1 and tree.observations != obs:
        raise TreeShapeError("tree branches on %r, not %r" % (tree.observations, obs))
    unknown = set() if actions is None else set(tree.preorder) - set(actions)
    if unknown:
        raise TreeShapeError("unknown actions %r" % sorted(unknown))


def sequence_at(tree: PolicyTree, node: int) -> BehaviorSequence:
    """The behavior sequence from the root to preorder node ``node``."""
    obs = tree.observations
    table = _table_of(tree)
    path = table.path[node]
    return BehaviorSequence(
        tuple(tree.preorder[v] for v in path),
        tuple(obs[table.branch[v]] for v in path[1:]),
    )


def frame(tree: PolicyTree, t: int) -> PolicyTree:
    """The depth-t truncation of ``tree`` (top t levels, leaves stripped).

    Its preorder is the tree's preorder restricted to levels below t.
    """
    if t < 1 or t > tree.depth:
        raise ValueError("frame depth %d outside [1, %d]" % (t, tree.depth))
    kept = tuple(a for a, lvl in zip(tree.preorder, _table_of(tree).level) if lvl < t)
    return PolicyTree(kept, tree.observations)


def _check_symbols(symbols: Iterable[str]) -> tuple[str, ...]:
    syms = tuple(symbols)
    for s in syms:
        if not s or any(ch in _RESERVED for ch in s):
            raise ValueError(
                "symbol %r is empty or contains a reserved character (%s)"
                % (s, _RESERVED)
            )
    return syms


def canonical_encode(tree: PolicyTree) -> str:
    """Self-describing canonical string: depth;obs,obs,...;a|a|... in preorder.

    Equal trees encode equally, and only equal trees do; written to candidate
    and policy files, while trees in memory are compared as trees.
    """
    return "%d;%s;%s" % (tree.depth, ",".join(tree.observations), "|".join(tree.preorder))


def canonical_parse(text: str) -> PolicyTree:
    """Inverse of canonical_encode; raise TreeShapeError naming ``text``.

    The action list must hold one action per node of a complete tree, whose
    depth (read from the list's length, so a huge written depth costs
    nothing) must be the one written; the observation labels must be
    distinct and listed exactly when the depth is above 1, and no symbol may
    be empty or hold a reserved character.
    """
    parts = text.split(";", 2)
    if len(parts) != 3 or not parts[0].isdecimal() or not parts[0].strip("0"):
        raise TreeShapeError("%r is not a depth;observations;actions tree encoding" % text)
    obs = tuple(parts[1].split(",")) if parts[1] else ()
    acts = tuple(parts[2].split("|"))
    try:
        tree = PolicyTree(acts, obs)
        _check_symbols(obs + acts)
        if parts[0] != str(tree.depth):
            raise TreeShapeError("its actions form a tree of depth %d" % tree.depth)
        if tree.depth == 1 and obs:
            raise TreeShapeError("a leaf encoding lists observations")
        if len(set(obs)) != len(obs):
            raise TreeShapeError("repeated observation label")
    except ValueError as exc:
        raise TreeShapeError("%r: %s" % (text, exc)) from None
    return tree


def constant_tree(
    action: str, observations: Iterable[str], depth: int
) -> PolicyTree:
    """Complete tree prescribing ``action`` everywhere."""
    obs = tuple(observations)
    return PolicyTree((action,) * count_tree_nodes(len(obs), depth), obs)


def count_tree_nodes(n_obs: int, depth: int) -> int:
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if n_obs <= 1:
        return depth
    return (n_obs**depth - 1) // (n_obs - 1)


def count_trees(n_actions: int, n_obs: int, depth: int) -> int:
    """Number of distinct complete trees: |A| ** node count."""
    return n_actions ** count_tree_nodes(n_obs, depth)


def all_trees(
    actions: Iterable[str], observations: Iterable[str], depth: int
) -> Iterator[PolicyTree]:
    """Every complete tree, in lexicographic preorder-assignment order.

    The root action is the most significant position, then the rest of the
    preorder in declared action order.  Intended for brute-force enumeration;
    callers must cap the count themselves (see count_trees).
    """
    acts = tuple(actions)
    obs = tuple(observations)
    n = count_tree_nodes(len(obs), depth)
    for assignment in itertools.product(acts, repeat=n):
        yield PolicyTree(assignment, obs)


def _csv_line(row: Sequence) -> str:
    """One CSV line; repr keeps every digit of a float."""
    return ",".join(repr(x) if isinstance(x, float) else str(x) for x in row) + "\n"


def _csv_text(columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Header plus one line per row."""
    return _csv_line(columns) + "".join(map(_csv_line, rows))


def _json_text(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _as_written(key: str, value, error: type = ValueError):
    """``value``, once a search one nesting level at a time finds no bool or
    string in it, else ``error`` naming ``key``: an input file's numbers are
    read as written."""
    level = [value]
    while level:
        kinds = set(map(type, level))
        if bool in kinds or str in kinds:
            x = next(x for x in level if type(x) in (bool, str))
            raise error("%s: %r is not a number" % (key, x))
        nested = (x for x in level if type(x) in (list, tuple)) if kinds & {list, tuple} else ()
        level = list(itertools.chain.from_iterable(nested))
    return value


def _integer(key: str, x, error: type = ValueError) -> int:
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise error("%s: %r is not an integer" % (key, x))
    return int(x)


def _count(key: str, x, bound: int | None = None, error: type = ValueError) -> int:
    """``x`` as an int, unless ``_integer`` refuses it or it lies outside [1,
    bound] (no upper bound when None): then ``error`` naming ``key`` and ``x``."""
    x = _integer(key, x, error)
    if x < 1:
        raise error("%s must be >= 1, got %d" % (key, x))
    if bound is not None and x > bound:
        raise error("%s must be <= %d, got %d" % (key, bound, x))
    return x


# Each kind a key may be declared: its JSON types (a caller's tuple is a list), its name.
_KINDS = {list: ((list, tuple), "a list"), dict: ((dict,), "an object"), str: ((str,), "a string"),
          int | None: ((int, type(None)), "an integer or null")}


def _check_keys(noun: str, obj, kinds: dict, required=(), error: type = ValueError) -> None:
    """``error`` unless ``obj``, a ``noun``, is a JSON object keyed within
    ``kinds`` and holding each ``required`` key, whose values have exactly a
    type of their key's kind, so a bool is no integer; kind None: unchecked."""
    if not isinstance(obj, dict):
        raise error("a %s is a JSON object, not a %s" % (noun, type(obj).__name__))
    unknown = set(obj) - set(kinds)
    if unknown:
        raise error("unknown %s keys: %s" % (noun, ", ".join(sorted(map(str, unknown)))))
    missing = [key for key in required if key not in obj]
    if missing:
        raise error("missing %s keys: %s" % (noun, ", ".join(missing)))
    for key, value in obj.items():
        if kinds[key] is not None and type(value) not in _KINDS[kinds[key]][0]:
            raise error("%s: %r is not %s" % (key, value, _KINDS[kinds[key]][1]))


def _read_input(path, build: Callable) -> tuple[object, str]:
    """``build`` of the JSON value in the file ``path``, and the SHA-256 of
    the bytes parsed, so a manifest names the bytes a run used.

    A file that is not JSON, or a value ``build`` refuses with a ValueError
    or TypeError, raises a ValueError that starts with the path and is
    caused by the original.  A ValueError subclass that takes a bare message
    (DomainValidationError, TreeShapeError) keeps its class.
    """
    data = Path(path).read_bytes()
    try:
        obj = json.loads(data)
    except ValueError as exc:
        raise ValueError("%s: not a JSON file: %s" % (path, exc)) from exc
    try:
        return build(obj), hashlib.sha256(data).hexdigest()
    except (TypeError, ValueError) as exc:
        keep = isinstance(exc, ValueError) and type(exc).__init__ is ValueError.__init__
        raise (type(exc) if keep else ValueError)("%s: %s" % (path, exc)) from exc
