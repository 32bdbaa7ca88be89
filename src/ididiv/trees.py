"""Policy trees and behavior sequences.

A policy tree of depth T prescribes an action at the root and, for every
observation, a subtree of depth T-1.  Walking root to leaf yields a behavior
sequence: T actions interleaved with T-1 observations.  Trees are complete:
every non-leaf node has exactly one child per observation symbol, in the
declared observation order.

All complete trees of one (n_obs, depth) share their nodes, numbered in
preorder: ``node_table`` gives each node's level, parent, children and root
path, and ``PolicyTree.preorder`` a tree's actions.  Prefixes, frames, the
canonical encoding, diversity counts, matrix columns and flattening read
this layout.  Every tree built from a preorder is built by ``_build``: a
parsed encoding, a frame, an enumerated tree, the tree a check compares
against and the tree of each exact solve, whose recursion returns rows.

``_csv_text`` is the one CSV writer, for grid results, diversity reports,
behavior matrices and episode steps.  Byte-identical replay rests on its
one rule: a float cell is written with ``repr``, every other cell with
``str``.  ``_json_text`` is the one JSON writer.  ``_read_input`` is the one
reading of an input file (a domain, candidate set, grid config or manifest):
it parses, builds and hashes the same bytes, and its errors start with the path.
``_as_written`` is the one rule for the numbers in such a file: a bool or a
string where a number belongs is refused, never converted, and ``_integer``
its rule for an integer.  ``_check_keys`` refuses a key the reader does not know.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
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
    "prefixes",
    "frame",
    "sequence_list",
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
    """One node of a complete policy tree.

    ``children`` pairs each observation symbol with its subtree, in declared
    observation order.  Leaves have no children.
    """

    action: str
    children: tuple[tuple[str, "PolicyTree"], ...] = ()

    @property
    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + self.children[0][1].depth

    @property
    def observation_labels(self) -> tuple[str, ...]:
        return tuple(o for o, _ in self.children)

    def child(self, obs: str) -> "PolicyTree":
        for o, sub in self.children:
            if o == obs:
                return sub
        raise KeyError("no child for observation %r" % obs)

    @cached_property
    def preorder(self) -> tuple[str, ...]:
        """Every node's action in preorder, computed once per tree."""
        out: list[str] = []
        stack = [self]
        while stack:
            node = stack.pop()
            out.append(node.action)
            stack.extend(sub for _, sub in reversed(node.children))
        return tuple(out)


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
    return node_table(len(tree.observation_labels), tree.depth)


def prefix_ids(trees: Sequence[PolicyTree]) -> tuple[NodeTable, np.ndarray]:
    """The shared layout of same-shape trees and their prefix ids.

    ``ids[k, v]`` numbers the behavior prefix from the root to preorder node
    v of tree k by first appearance (trees in order, nodes in preorder), so
    equal ids mean equal prefixes.  A tree's ids on level t-1 fix its depth-t
    frame: every node above that level is an ancestor of one on it.
    """
    shapes = {(t.depth, t.observation_labels) for t in trees}
    if len(shapes) != 1:
        raise ValueError("trees need one depth and one observation alphabet: %r" % shapes)
    ((depth, obs),) = shapes
    table = node_table(len(obs), depth)
    n = len(table.level)
    if any(len(t.preorder) != n for t in trees):
        raise TreeShapeError("incomplete tree: not %d nodes at depth %d" % (n, depth))
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
    """Check completeness and labeling; raise TreeShapeError on violation.

    Every non-leaf node must carry one child per symbol of ``observations``,
    in that exact order, and all leaves must sit at the same depth: the tree
    must equal the complete tree its preorder spells.  When ``depth`` or
    ``actions`` are given they are enforced too.
    """
    obs = tuple(observations)
    d = tree.depth
    if depth is not None and d != depth:
        raise TreeShapeError("tree depth %d, expected %d" % (d, depth))
    pre = tree.preorder
    if len(pre) != count_tree_nodes(len(obs), d) or tree != _build(iter(pre), obs, d):
        raise TreeShapeError("tree is not complete over %r at depth %d" % (obs, d))
    unknown = set() if actions is None else set(pre) - set(actions)
    if unknown:
        raise TreeShapeError("unknown actions %r" % sorted(unknown))


def sequence_at(tree: PolicyTree, node: int) -> BehaviorSequence:
    """The behavior sequence from the root to preorder node ``node``."""
    obs = tree.observation_labels
    table = _table_of(tree)
    path = table.path[node]
    return BehaviorSequence(
        tuple(tree.preorder[v] for v in path),
        tuple(obs[table.branch[v]] for v in path[1:]),
    )


def prefixes(tree: PolicyTree, t: int) -> frozenset[BehaviorSequence]:
    """All length-t behavior sequences realized by root-to-depth-t walks."""
    if t < 1 or t > tree.depth:
        raise ValueError("prefix length %d outside [1, %d]" % (t, tree.depth))
    nodes = np.flatnonzero(_table_of(tree).level == t - 1)
    return frozenset(sequence_at(tree, v) for v in nodes)


def frame(tree: PolicyTree, t: int) -> PolicyTree:
    """The depth-t truncation of ``tree`` (top t levels, leaves stripped).

    Its preorder is the tree's preorder restricted to levels below t.
    """
    if t < 1 or t > tree.depth:
        raise ValueError("frame depth %d outside [1, %d]" % (t, tree.depth))
    kept = (a for a, lvl in zip(tree.preorder, _table_of(tree).level) if lvl < t)
    return _build(kept, tree.observation_labels, t)


def sequence_list(tree: PolicyTree) -> tuple[BehaviorSequence, ...]:
    """Full-length sequences, one per leaf, leaves in preorder.

    Every leaf path differs in observations, so no sequence repeats.
    """
    nodes = np.flatnonzero(_table_of(tree).level == tree.depth - 1)
    return tuple(sequence_at(tree, v) for v in nodes)


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

    Equal trees encode equally; used for de-duplication, as a dict key and
    in candidate files.
    """
    obs = tree.observation_labels if tree.children else ()
    return "%d;%s;%s" % (tree.depth, ",".join(obs), "|".join(tree.preorder))


def _encoded_rows(encodings: Iterable[str], observations, depth: int) -> frozenset:
    """The preorder action rows of those ``encodings`` that spell a tree of
    this depth over these observations, the only ones whose encoding can
    equal ``canonical_encode`` of such a tree."""
    head = "%d;%s;" % (depth, ",".join(observations) if depth > 1 else "")
    return frozenset(tuple(e[len(head):].split("|")) for e in encodings if e.startswith(head))


def canonical_parse(text: str) -> PolicyTree:
    """Inverse of canonical_encode; raise TreeShapeError naming ``text``.

    The observation labels must be distinct and listed exactly when the
    depth is above 1, the action list must hold one action per node of the
    complete tree, and no symbol may be empty or hold a reserved character.
    """
    parts = text.split(";", 2)
    if len(parts) != 3 or not parts[0].isdecimal() or int(parts[0]) < 1:
        raise TreeShapeError("%r is not a depth;observations;actions tree encoding" % text)
    depth = int(parts[0])
    obs = tuple(parts[1].split(",")) if parts[1] else ()
    acts = parts[2].split("|")
    n = count_tree_nodes(len(obs), depth)
    problem = None
    if depth > 1 and not obs:
        problem = "a non-leaf encoding lacks the observation alphabet"
    elif depth == 1 and obs:
        problem = "a leaf encoding lists observations"
    elif len(set(obs)) != len(obs):
        problem = "repeated observation label"
    elif len(acts) != n:
        problem = "%d actions, expected %d for depth %d over %d observations" % (
            len(acts), n, depth, len(obs))
    else:
        try:
            _check_symbols(obs + tuple(acts))
        except ValueError as exc:
            problem = str(exc)
    if problem:
        raise TreeShapeError("%r: %s" % (text, problem))
    return _build(iter(acts), obs, depth)


def constant_tree(
    action: str, observations: Iterable[str], depth: int
) -> PolicyTree:
    """Complete tree prescribing ``action`` everywhere.

    Each level shares one subtree, so building it costs time linear in
    depth.
    """
    obs = tuple(observations)
    node = PolicyTree(action)
    for _ in range(depth - 1):
        node = PolicyTree(action, tuple((o, node) for o in obs))
    return node


def count_tree_nodes(n_obs: int, depth: int) -> int:
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if n_obs <= 1:
        return depth
    return (n_obs**depth - 1) // (n_obs - 1)


def count_trees(n_actions: int, n_obs: int, depth: int) -> int:
    """Number of distinct complete trees: |A| ** node count."""
    return n_actions ** count_tree_nodes(n_obs, depth)


def _build(it: Iterator[str], obs: tuple[str, ...], remaining: int) -> PolicyTree:
    """The complete tree whose preorder actions ``it`` yields.

    Module-level rather than a closure over itself, which would leave a
    reference cycle behind on every call.
    """
    action = next(it)
    if remaining == 1:
        return PolicyTree(action)
    return PolicyTree(action, tuple((o, _build(it, obs, remaining - 1)) for o in obs))


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
        yield _build(iter(assignment), obs, depth)


def _csv_text(columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Header plus one line per row; repr keeps every digit of a float."""
    lines = [",".join(columns)]
    lines += (",".join(repr(x) if isinstance(x, float) else str(x) for x in r) for r in rows)
    return "\n".join(lines) + "\n"


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


def _count(key: str, x: int, bound: int) -> int:
    """``x``, unless it lies outside [1, bound]: then a ValueError naming
    ``key`` and ``x``."""
    if x < 1:
        raise ValueError("%s must be >= 1" % key)
    if x > bound:
        raise ValueError("%s must be <= %d, got %d" % (key, bound, x))
    return x


def _check_keys(noun: str, obj, keys, error: type = ValueError) -> None:
    """``error`` unless ``obj``, a ``noun``, is a JSON object keyed within ``keys``."""
    if not isinstance(obj, dict):
        raise error("a %s is a JSON object, not a %s" % (noun, type(obj).__name__))
    unknown = set(obj) - set(keys)
    if unknown:
        raise error("unknown %s keys: %s" % (noun, ", ".join(sorted(map(str, unknown)))))


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
