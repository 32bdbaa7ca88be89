"""The preorder node table against recursive set- and string-based oracles.

The oracles walk a tree's ``action`` and ``children`` views recursively, as
the package walked nested nodes before prefixes, frames, leaf sequences,
behavior matrix columns and flattening's position tables moved onto
``trees.node_table`` and ``PolicyTree.preorder``.
"""

import numpy as np

from ididiv import build_matrix, canonical_encode, diversity_report
from ididiv.trees import (
    BehaviorSequence,
    PolicyTree,
    frame,
    node_table,
    prefixes,
    sequence_list,
)
from conftest import nested, random_tree, random_tree_set


def oracle_prefixes(tree: PolicyTree, t: int) -> frozenset:
    out = set()

    def walk(node, acts, obss):
        acts = acts + (node.action,)
        if len(acts) == t:
            out.add(BehaviorSequence(acts, obss))
            return
        for o, sub in node.children:
            walk(sub, acts, obss + (o,))

    walk(tree, (), ())
    return frozenset(out)


def oracle_frame(tree: PolicyTree, t: int) -> PolicyTree:
    if t == 1:
        return nested(tree.action)
    return nested(
        tree.action, tuple((o, oracle_frame(sub, t - 1)) for o, sub in tree.children)
    )


def oracle_sequence_list(tree: PolicyTree) -> tuple:
    out = []

    def walk(node, acts, obss):
        acts = acts + (node.action,)
        if not node.children:
            out.append(BehaviorSequence(acts, obss))
            return
        for o, sub in node.children:
            walk(sub, acts, obss + (o,))

    walk(tree, (), ())
    return tuple(out)


def oracle_preorder(tree: PolicyTree) -> str:
    return "|".join(
        [tree.action] + [oracle_preorder(sub) for _, sub in tree.children]
    )


def oracle_counts(trees):
    depth = trees[0].depth
    seq = tuple(
        len(set().union(*(oracle_prefixes(tr, t) for tr in trees)))
        for t in range(1, depth + 1)
    )
    frm = tuple(
        len({canonical_encode(oracle_frame(tr, t)) for tr in trees})
        for t in range(1, depth + 1)
    )
    return seq, frm


def oracle_matrix(trees):
    index = {}
    per_tree = []
    for tr in trees:
        seqs = oracle_sequence_list(tr)
        per_tree.append(seqs)
        for s in seqs:
            index.setdefault(s, len(index))
    entries = np.zeros((len(trees), len(index)), dtype=np.uint8)
    for r, seqs in enumerate(per_tree):
        for s in seqs:
            entries[r, index[s]] = 1
    return tuple(sorted(index, key=index.__getitem__)), entries


def oracle_flat_tables(tree, act_index, n_obs):
    """Flattening's former recursive (actions, parents, children) tables."""
    actions, parents, children = [], [], []

    def walk(node, parent):
        idx = len(actions)
        actions.append(act_index[node.action])
        parents.append(parent)
        children.append([-1] * n_obs)
        for k, (_, sub) in enumerate(node.children):
            children[idx][k] = walk(sub, idx)
        return idx

    walk(tree, -1)
    return actions, parents, children


def check_set(trees, acts, obs):
    n = len(obs)
    rep = diversity_report(trees, n)
    assert (rep.sequence_counts, rep.frame_counts) == oracle_counts(trees)

    m = build_matrix(trees)
    columns, entries = oracle_matrix(trees)
    assert m.columns == columns
    assert np.array_equal(m.entries, entries)

    act_index = {a: k for k, a in enumerate(acts)}
    for tree in trees:
        depth = tree.depth
        table = node_table(n, depth)
        a, p, c = oracle_flat_tables(tree, act_index, n)
        assert [act_index[x] for x in tree.preorder] == a
        assert table.parent.tolist() == p
        assert table.children.tolist() == c
        assert "|".join(tree.preorder) == oracle_preorder(tree)
        assert sequence_list(tree) == oracle_sequence_list(tree)
        for t in range(1, depth + 1):
            assert prefixes(tree, t) == oracle_prefixes(tree, t)
            assert frame(tree, t) == oracle_frame(tree, t)


def test_random_sets_match_oracle():
    rng = np.random.default_rng(31)
    shapes = set()
    for _ in range(300):
        trees, acts, obs = random_tree_set(rng)
        shapes.add((len(obs), trees[0].depth))
        check_set(trees, acts, obs)
    # The generator reaches the edge shapes: one observation, depth one.
    assert any(n == 1 and d > 1 for n, d in shapes)
    assert any(d == 1 for _, d in shapes)


def test_criterion_4_sets_match_oracle():
    # The same 1,000 sets as acceptance criterion 4, which also draws a
    # permutation per set from the generator.
    rng = np.random.default_rng(4)
    for _ in range(1000):
        trees, acts, obs = random_tree_set(rng)
        rng.permutation(len(trees))
        check_set(trees, acts, obs)


def test_uav_sized_set_matches_oracle(uav):
    # Wider and deeper than the random sets: the uav peer's alphabets, depth 4.
    rng = np.random.default_rng(8)
    acts, obs = uav.actions_j, uav.observations_j
    trees = [random_tree(rng, acts, obs, 4) for _ in range(12)]
    trees += trees[:3]
    check_set(trees, acts, obs)
