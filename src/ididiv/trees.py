"""Policy trees and behavior sequences.

A policy tree of depth T prescribes an action at the root and, for every
observation, a subtree of depth T-1.  Walking root to leaf yields a behavior
sequence: T actions interleaved with T-1 observations.  Trees are complete:
every non-leaf node has exactly one child per observation symbol, in the
declared observation order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "BehaviorSequence",
    "PolicyTree",
    "TreeShapeError",
    "validate_tree",
    "prefixes",
    "frame",
    "sequences_of",
    "sequence_list",
    "canonical_encode",
    "canonical_parse",
    "compact_encode",
    "compact_parse",
    "constant_tree",
    "all_trees",
    "count_trees",
    "count_tree_nodes",
    "tree_nodes",
]

# Separators used by the string encodings.  Symbol identifiers must avoid them.
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
        parts = [self.actions[0]]
        for o, a in zip(self.observations, self.actions[1:]):
            parts.append(o)
            parts.append(a)
        return "/".join(parts)

    @staticmethod
    def from_compact(text: str) -> "BehaviorSequence":
        parts = text.split("/")
        if len(parts) % 2 == 0:
            raise ValueError("compact sequence must have odd part count: %r" % text)
        return BehaviorSequence(tuple(parts[0::2]), tuple(parts[1::2]))


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


def validate_tree(
    tree: PolicyTree,
    observations: Iterable[str],
    depth: int | None = None,
    actions: Iterable[str] | None = None,
) -> None:
    """Check completeness and labeling; raise TreeShapeError on violation.

    Every non-leaf node must carry one child per symbol of ``observations``,
    in that exact order, and all leaves must sit at the same depth.  When
    ``depth`` or ``actions`` are given they are enforced too.
    """
    obs = tuple(observations)
    acts = None if actions is None else frozenset(actions)

    def walk(node: PolicyTree, remaining: int) -> None:
        if acts is not None and node.action not in acts:
            raise TreeShapeError("unknown action %r" % node.action)
        if remaining == 1:
            if node.children:
                raise TreeShapeError("leaf expected at depth bound, found children")
            return
        if node.observation_labels != obs:
            raise TreeShapeError(
                "children labeled %r, expected %r"
                % (node.observation_labels, obs)
            )
        for _, sub in node.children:
            walk(sub, remaining - 1)

    d = tree.depth if depth is None else depth
    if depth is not None and tree.depth != depth:
        raise TreeShapeError("tree depth %d, expected %d" % (tree.depth, depth))
    walk(tree, d)


def prefixes(tree: PolicyTree, t: int) -> frozenset[BehaviorSequence]:
    """All length-t behavior sequences realized by root-to-depth-t walks."""
    if t < 1 or t > tree.depth:
        raise ValueError("prefix length %d outside [1, %d]" % (t, tree.depth))
    out: set[BehaviorSequence] = set()

    def walk(node: PolicyTree, acts: tuple[str, ...], obss: tuple[str, ...]) -> None:
        acts = acts + (node.action,)
        if len(acts) == t:
            out.add(BehaviorSequence(acts, obss))
            return
        for o, sub in node.children:
            walk(sub, acts, obss + (o,))

    walk(tree, (), ())
    return frozenset(out)


def frame(tree: PolicyTree, t: int) -> PolicyTree:
    """The depth-t truncation of ``tree`` (top t levels, leaves stripped)."""
    if t < 1 or t > tree.depth:
        raise ValueError("frame depth %d outside [1, %d]" % (t, tree.depth))
    if t == 1:
        return PolicyTree(tree.action)
    return PolicyTree(
        tree.action,
        tuple((o, frame(sub, t - 1)) for o, sub in tree.children),
    )


def sequences_of(tree: PolicyTree) -> frozenset[BehaviorSequence]:
    """The distinct full-length behavior sequences of ``tree``."""
    return prefixes(tree, tree.depth)


def sequence_list(tree: PolicyTree) -> tuple[BehaviorSequence, ...]:
    """Full-length sequences in first-appearance (depth-first) order.

    Duplicates (identical action/observation interleavings reached through
    different leaves cannot occur; every leaf path differs in observations)
    are impossible, so the tuple has one entry per leaf.
    """
    out: list[BehaviorSequence] = []

    def walk(node: PolicyTree, acts: tuple[str, ...], obss: tuple[str, ...]) -> None:
        acts = acts + (node.action,)
        if not node.children:
            out.append(BehaviorSequence(acts, obss))
            return
        for o, sub in node.children:
            walk(sub, acts, obss + (o,))

    walk(tree, (), ())
    return tuple(out)


def _check_symbols(symbols: Iterable[str]) -> tuple[str, ...]:
    syms = tuple(symbols)
    for s in syms:
        if not s or any(ch in _RESERVED for ch in s):
            raise ValueError(
                "symbol %r is empty or contains a reserved character (%s)"
                % (s, _RESERVED)
            )
    return syms


def compact_encode(tree: PolicyTree) -> str:
    """Pipe-joined preorder action list; shape implied by depth and arity."""
    parts: list[str] = []

    def walk(node: PolicyTree) -> None:
        parts.append(node.action)
        for _, sub in node.children:
            walk(sub)

    walk(tree)
    return "|".join(parts)


def compact_parse(
    text: str, observations: Iterable[str], depth: int
) -> PolicyTree:
    """Inverse of compact_encode given the observation alphabet and depth."""
    obs = _check_symbols(observations)
    parts = text.split("|")
    expected = count_tree_nodes(len(obs), depth)
    if len(parts) != expected:
        raise TreeShapeError(
            "encoding has %d nodes, expected %d for depth %d over %d observations"
            % (len(parts), expected, depth, len(obs))
        )
    return _from_preorder(parts, obs, depth)


def canonical_encode(tree: PolicyTree) -> str:
    """Self-describing canonical string: depth;obs,obs,...;preorder actions.

    Equal trees encode equally; used for de-duplication and as a dict key.
    """
    obs = tree.observation_labels if tree.children else ()
    return "%d;%s;%s" % (tree.depth, ",".join(obs), compact_encode(tree))


def canonical_parse(text: str) -> PolicyTree:
    depth_s, obs_s, body = text.split(";", 2)
    depth = int(depth_s)
    obs = tuple(obs_s.split(",")) if obs_s else ()
    if depth > 1 and not obs:
        raise TreeShapeError("non-leaf encoding lacks observation alphabet")
    if depth == 1:
        return PolicyTree(body)
    return compact_parse(body, obs, depth)


def constant_tree(
    action: str, observations: Iterable[str], depth: int
) -> PolicyTree:
    """Complete tree prescribing ``action`` everywhere."""
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


def _from_preorder(
    assignment: Iterable[str], obs: tuple[str, ...], depth: int
) -> PolicyTree:
    it = iter(assignment)

    def build(remaining: int) -> PolicyTree:
        action = next(it)
        if remaining == 1:
            return PolicyTree(action)
        return PolicyTree(action, tuple((o, build(remaining - 1)) for o in obs))

    return build(depth)


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
        yield _from_preorder(assignment, obs, depth)


def tree_nodes(tree: PolicyTree) -> tuple[PolicyTree, ...]:
    """All nodes in preorder."""
    out: list[PolicyTree] = []

    def walk(node: PolicyTree) -> None:
        out.append(node)
        for _, sub in node.children:
            walk(sub)

    walk(tree)
    return tuple(out)
