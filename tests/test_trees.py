import gc
import pickle

import pytest
from hypothesis import given, strategies as st

from ididiv import (
    BehaviorSequence,
    PolicyTree,
    TreeShapeError,
    all_trees,
    canonical_encode,
    canonical_parse,
    constant_tree,
    count_tree_nodes,
    count_trees,
    frame,
    prefixes,
    sequence_list,
    validate_tree,
)
from conftest import nested, node


class TestBehaviorSequence:
    def test_lengths(self):
        s = BehaviorSequence(("a", "b"), ("o",))
        assert s.length == 2

    def test_bad_interleaving(self):
        with pytest.raises(ValueError):
            BehaviorSequence(("a", "b"), ())
        with pytest.raises(ValueError):
            BehaviorSequence((), ())

    def test_compact_roundtrip(self):
        s = BehaviorSequence(("a", "b", "a"), ("x", "y"))
        assert s.compact() == "a/x/b/y/a"


class TestShapes:
    def test_depth(self, fig_trees):
        assert all(t.depth == 3 for t in fig_trees)
        assert nested("A").depth == 1

    def test_validate_complete(self, fig_trees):
        for t in fig_trees:
            validate_tree(t, ("o1", "o2"), depth=3, actions=("A", "B", "C"))

    def test_validate_wrong_labels(self, fig_trees):
        with pytest.raises(TreeShapeError):
            validate_tree(fig_trees[0], ("o2", "o1"))

    def test_validate_wrong_depth(self, fig_trees):
        with pytest.raises(TreeShapeError):
            validate_tree(fig_trees[0], ("o1", "o2"), depth=2)

    def test_validate_unknown_action(self, fig_trees):
        with pytest.raises(TreeShapeError):
            validate_tree(fig_trees[0], ("o1", "o2"), actions=("A", "B"))

    def test_ragged_tree_rejected(self):
        # One child under a two-symbol alphabet spells a chain over ("o1",).
        ragged = nested("A", (("o1", nested("B")),))
        with pytest.raises(TreeShapeError):
            validate_tree(ragged, ("o1", "o2"))

    def test_child_lookup(self, fig_trees):
        assert dict(fig_trees[0].children)["o1"].action == "B"
        with pytest.raises(KeyError):
            dict(fig_trees[0].children)["nope"]


class TestPrefixes:
    # Hand-counted on the fixture: 2, 5, 12 distinct prefixes by depth.
    def test_fixture_counts(self, fig_trees):
        union = set()
        for depth, expect in ((1, 2), (2, 5), (3, 12)):
            union = set()
            for t in fig_trees:
                union |= prefixes(t, depth)
            assert len(union) == expect

    def test_single_tree(self, fig_trees):
        t = fig_trees[0]
        assert prefixes(t, 1) == {BehaviorSequence(("A",), ())}
        assert len(prefixes(t, 3)) == 4

    def test_out_of_range(self, fig_trees):
        with pytest.raises(ValueError):
            prefixes(fig_trees[0], 0)
        with pytest.raises(ValueError):
            prefixes(fig_trees[0], 4)

    def test_sequence_list_order(self):
        t = node("A", node("B"), node("C"))
        seqs = sequence_list(t)
        assert [s.compact() for s in seqs] == ["A/o1/B", "A/o2/C"]


class TestFrame:
    def test_frame_top(self, fig_trees):
        f = frame(fig_trees[0], 1)
        assert f == nested("A")

    def test_frame_middle(self, fig_trees):
        f = frame(fig_trees[0], 2)
        assert f == node("A", node("B"), node("C"))

    def test_frame_full_is_identity(self, fig_trees):
        for t in fig_trees:
            assert frame(t, 3) == t

    def test_frame_out_of_range(self, fig_trees):
        with pytest.raises(ValueError):
            frame(fig_trees[0], 4)


class TestEncoding:
    def test_canonical_preorder(self, fig_trees):
        # Preorder: root, o1 subtree, o2 subtree.
        assert canonical_encode(fig_trees[0]) == "3;o1,o2;A|B|A|B|C|C|A"

    def test_canonical_wrong_node_count(self):
        with pytest.raises(TreeShapeError):
            canonical_parse("3;o1,o2;A|B")

    def test_compact_roundtrip(self, fig_trees):
        # The preorder action list alone, the last field of the canonical
        # form, rebuilds the tree once its labels and depth are given.
        for t in fig_trees:
            actions = canonical_encode(t).rsplit(";", 1)[1]
            assert canonical_parse(f"3;o1,o2;{actions}") == t

    def test_canonical_roundtrip(self, fig_trees):
        for t in fig_trees:
            assert canonical_parse(canonical_encode(t)) == t

    def test_canonical_leaf(self):
        t = nested("Go")
        assert canonical_parse(canonical_encode(t)) == t

    def test_canonical_distinguishes(self, fig_trees):
        encs = {canonical_encode(t) for t in fig_trees}
        assert len(encs) == 4

    def test_reserved_symbols_rejected(self):
        with pytest.raises(ValueError):
            canonical_parse("2;o|1;A|B")

    @pytest.mark.parametrize(
        "text",
        [
            "1;;A|B", "1;;", "1;;A/B", "2;o1,o2;A||B", "2;o1,o2;|A|B", "2;o1,o2;A|B;C|D",
            "2;o1,o1;A|B|B", "1;o1,o2;A",
        ],
    )
    def test_malformed_actions_rejected(self, text):
        # Empty actions and actions holding a separator cannot be re-encoded,
        # a repeated observation label would make two children of one, and
        # a leaf that lists observations would re-encode without them.
        with pytest.raises(TreeShapeError) as err:
            canonical_parse(text)
        assert repr(text) in str(err.value)

    @pytest.mark.parametrize("text", ["x", "A|B", "2;o1,o2", "two;o1,o2;A|B|C", "0;;A"])
    def test_not_an_encoding_is_named(self, text):
        with pytest.raises(TreeShapeError, match="not a depth;observations;actions") as err:
            canonical_parse(text)
        assert repr(text) in str(err.value)

    def test_empty_action_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            canonical_parse("2;o1,o2;A||B")


class TestEnumeration:
    def test_node_count(self):
        assert count_tree_nodes(2, 3) == 7
        assert count_tree_nodes(1, 4) == 4
        assert count_tree_nodes(3, 2) == 4

    def test_count_trees(self):
        assert count_trees(3, 2, 2) == 27
        assert count_trees(3, 2, 3) == 3**7

    def test_all_trees_lex_order(self):
        trees = list(all_trees(("a", "b"), ("x", "y"), 2))
        assert len(trees) == 8
        assert trees[0] == constant_tree("a", ("x", "y"), 2)
        assert trees[-1] == constant_tree("b", ("x", "y"), 2)
        # Root is the most significant slot.
        assert trees[0].action == "a" and trees[4].action == "b"
        assert len({canonical_encode(t) for t in trees}) == 8

    def test_constant_tree(self):
        t = constant_tree("A", ("o1", "o2"), 3)
        validate_tree(t, ("o1", "o2"), depth=3)
        assert len(prefixes(t, 3)) == 4
        assert set(t.preorder) == {"A"}

    def test_tree_nodes_preorder(self, fig_trees):
        assert fig_trees[0].preorder == ("A", "B", "A", "B", "C", "C", "A")


class TestBuildFromPreorder:
    def test_leaves_no_cyclic_garbage(self, fig_trees):
        # Building trees from a preorder makes no reference cycle, so what
        # each call drops is freed when it returns, not when the collector runs.
        tree = fig_trees[0]
        obs = tree.observations
        text = canonical_encode(tree)
        calls = {
            "PolicyTree": lambda: PolicyTree(tree.preorder, obs),
            "children": lambda: tree.children,
            "validate_tree": lambda: validate_tree(tree, obs, depth=3),
            "canonical_parse": lambda: canonical_parse(text),
            "frame": lambda: frame(tree, 2),
            "all_trees": lambda: list(all_trees(("A", "B"), obs, 2)),
        }
        gc.disable()
        try:
            for name, call in calls.items():
                gc.collect()
                call()
                assert gc.collect() == 0, name
        finally:
            gc.enable()


@st.composite
def small_trees(draw):
    depth = draw(st.integers(1, 3))
    n_obs = draw(st.integers(1, 3))
    obs = tuple("z%d" % k for k in range(n_obs))
    acts = ("a", "b", "c")

    def build(remaining):
        a = draw(st.sampled_from(acts))
        if remaining == 1:
            return nested(a)
        return nested(a, tuple((o, build(remaining - 1)) for o in obs))

    return build(depth), obs, depth


def _walked(tree):
    """The tree rebuilt by walking its ``action`` and ``children`` views."""
    return nested(tree.action, tuple((o, _walked(sub)) for o, sub in tree.children))


@given(small_trees())
def test_canonical_roundtrip_property(data):
    tree, obs, depth = data
    assert canonical_parse(canonical_encode(tree)) == tree
    again = PolicyTree(tree.preorder, tree.observations)
    assert again == tree and hash(again) == hash(tree)
    assert pickle.loads(pickle.dumps(tree)) == tree
    assert _walked(tree) == tree


@pytest.mark.parametrize("n", [2, 4])
def test_row_of_no_node_count_is_refused(n):
    # Complete trees over two observations have 1, 3, 7, ... nodes.
    with pytest.raises(TreeShapeError, match="of %d actions" % n):
        PolicyTree(("a",) * n, ("o1", "o2"))


@given(small_trees(), st.integers(1, 3))
def test_prefix_count_bounds_property(data, t):
    tree, obs, depth = data
    t = min(t, depth)
    p = prefixes(tree, t)
    # At most one prefix per observation history.
    assert 1 <= len(p) <= len(obs) ** (t - 1)
    for s in p:
        assert s.length == t
