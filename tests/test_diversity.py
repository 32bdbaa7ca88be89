import numpy as np
import pytest

from ididiv import (
    PolicyTree,
    constant_tree,
    diversity_report,
    mdf,
    mdp,
    report_to_csv,
)
from conftest import node, random_tree_set


def _sequences(trees):
    return diversity_report(trees, 2).sequence_counts


def _frames(trees):
    return diversity_report(trees, 2).frame_counts


class TestDiffSequences:
    def test_hand_counts(self, fig_trees):
        # Counted by hand in the fixture docstring.
        assert _sequences(fig_trees) == (2, 5, 12)

    def test_identical_trees(self):
        t = constant_tree("A", ("o1", "o2"), 3)
        assert _sequences([t, t, t])[2] == 4

    def test_single_tree(self):
        t = node("A", node("B"), node("C"))
        assert _sequences([t]) == (1, 2)


class TestDiffFrames:
    def test_hand_counts(self, fig_trees):
        assert _frames(fig_trees) == (2, 3, 4)

    def test_identical_trees(self):
        t = constant_tree("A", ("o1", "o2"), 3)
        assert _frames([t, t])[1] == 1

    def test_distinct_roots(self):
        trees = [constant_tree(a, ("o1", "o2"), 2) for a in "ABC"]
        assert _frames(trees)[0] == 3


class TestMeasures:
    def test_mdp_fixture_exact(self, fig_trees):
        # 2/1 + 5/2 + 12/4 with n = 2 observations; exact in binary floats.
        assert mdp(fig_trees, 2) == 7.5

    def test_mdf_fixture_exact(self, fig_trees):
        # (2+2)/1 + (5+3)/2 + (12+4)/4.
        assert mdf(fig_trees, 2) == 12.0

    def test_three_observations_add_left_to_right(self):
        # With 3 observations the terms are not exact in binary floats, and
        # the order of addition shows: Python 3.12's compensated sum() gives
        # 3.888888888888889 for these counts.
        obs = ("o1", "o2", "o3")
        rep = diversity_report(
            [PolicyTree(tuple("A" * 13), obs), PolicyTree(tuple("A" "BAAA" "ABAA" "AABA"), obs)], 3
        )
        assert (rep.sequence_counts, rep.frame_counts) == ((1, 4, 14), (1, 2, 2))
        assert rep.mdp_value == 0.0 + 1 / 1 + 4 / 3 + 14 / 9 == 3.8888888888888884
        assert rep.mdf_value == 0.0 + 2 / 1 + 6 / 3 + 16 / 9

    def test_mdf_dominates_mdp(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            trees, _, obs = random_tree_set(rng)
            assert mdf(trees, len(obs)) >= mdp(trees, len(obs))

    def test_monotone_in_added_tree(self):
        # Adding a tree can only add prefixes and frames.
        rng = np.random.default_rng(12)
        for _ in range(40):
            trees, _, obs = random_tree_set(rng)
            if len(trees) < 2:
                continue
            assert mdp(trees, len(obs)) >= mdp(trees[:-1], len(obs))
            assert mdf(trees, len(obs)) >= mdf(trees[:-1], len(obs))

    def test_deeper_scaling(self):
        # Two constant depth-3 trees over a four-letter alphabet realize 2, 8
        # and 32 distinct prefixes: 2/1 + 8/4 + 32/16.
        trees = [constant_tree(a, ("o1", "o2", "o3", "o4"), 3) for a in "AB"]
        assert mdp(trees, 4) == 6.0

    def test_observation_count_must_match_trees(self, fig_trees):
        # The trees branch on two observations; scaling by another count
        # would misstate the measure.
        for measure in (mdp, mdf, diversity_report):
            with pytest.raises(ValueError, match="observations"):
                measure(fig_trees, 4)
        with pytest.raises(ValueError, match="observations"):
            mdp([constant_tree("A", ("o1", "o2"), 2)], 5)

    def test_differing_observation_labels_rejected(self):
        a = constant_tree("A", ("o1", "o2"), 2)
        b = constant_tree("A", ("p1", "p2"), 2)
        for call in (
            lambda: mdp([a, b], 2),
            lambda: mdf([a, b], 2),
            lambda: diversity_report([a, b], 2),
        ):
            with pytest.raises(ValueError, match="observation alphabet"):
                call()

    def test_empty_set_is_zero(self):
        assert mdp([], 2) == 0.0
        assert mdf([], 2) == 0.0

    def test_bad_observation_count(self, fig_trees):
        with pytest.raises(ValueError):
            mdp(fig_trees, 0)

    @pytest.mark.parametrize("bad", [("o1", "o2"), 2.0, True], ids=["labels", "float", "bool"])
    def test_observation_count_is_an_int(self, fig_trees, bad):
        for measure in (mdp, mdf, diversity_report):
            with pytest.raises(ValueError, match="n_observations"):
                measure(fig_trees, bad)

    def test_mixed_depths_rejected(self, fig_trees):
        with pytest.raises(ValueError):
            mdp(fig_trees + [constant_tree("A", ("o1", "o2"), 2)], 2)


class TestReport:
    def test_report_fields(self, fig_trees):
        rep = diversity_report(fig_trees, 2)
        assert rep.n_observations == 2
        assert rep.sequence_counts == (2, 5, 12)
        assert rep.frame_counts == (2, 3, 4)
        assert rep.mdp_value == 7.5
        assert rep.mdf_value == 12.0

    def test_report_matches_measures(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            trees, _, obs = random_tree_set(rng)
            rep = diversity_report(trees, len(obs))
            assert rep.mdp_value == mdp(trees, len(obs))
            assert rep.mdf_value == mdf(trees, len(obs))

    def test_csv_golden(self, fig_trees):
        text = report_to_csv(diversity_report(fig_trees, 2))
        assert text == (
            "depth,distinct_prefixes,distinct_frames\n"
            "1,2,2\n"
            "2,5,3\n"
            "3,12,4\n"
            "mdp,7.5,\n"
            "mdf,12.0,\n"
        )
