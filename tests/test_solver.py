import numpy as np
import pytest

from ididiv import (
    EnumerationCapError,
    ImpossibleObservationError,
    PolicyTree,
    SingleAgentModel,
    TreeShapeError,
    belief_update,
    brute_force_solve,
    constant_tree,
    count_trees,
    evaluate_policy,
    flatten,
    observation_probability,
    solve_exact,
)
from conftest import random_model


def _det_obs_model(horizon=2):
    """One state, two actions (rewards 0 and 1), observation z0 certain."""
    return SingleAgentModel(
        name="det",
        states=("s0",),
        actions=("a0", "a1"),
        observations=("z0", "z1"),
        transition=np.ones((1, 2, 1)),
        obs_fn=np.array([[[1.0, 0.0], [1.0, 0.0]]]),
        reward=np.array([[0.0, 1.0]]),
        initial_belief=np.array([1.0]),
        horizon=horizon,
    )


class TestBeliefUpdate:
    def test_tiger_growl(self, tiger_j):
        b = belief_update(tiger_j, np.array([0.5, 0.5]), "Listen", "GrowlLeft")
        # Uniform prior stays uniform through the transition; the growl
        # likelihood then tilts it to exactly (0.85, 0.15).
        assert b == pytest.approx([0.85, 0.15], abs=1e-15)

    def test_normalized(self, tiger_j):
        b = belief_update(tiger_j, np.array([0.9, 0.1]), "Listen", "GrowlRight")
        assert b.sum() == pytest.approx(1.0, abs=1e-12)

    def test_impossible_observation(self):
        m = _det_obs_model()
        with pytest.raises(ImpossibleObservationError):
            belief_update(m, np.array([1.0]), "a0", "z1")

    def test_observation_probability(self, tiger_j):
        p = observation_probability(tiger_j, np.array([0.5, 0.5]), "Listen", "GrowlLeft")
        assert p == pytest.approx(0.5, abs=1e-12)


class TestSolveTiger:
    def test_horizon_one_listens(self, tiger_j):
        pol = solve_exact(tiger_j.replace(horizon=1))
        # Opening at uniform belief scores -45, listening -1.
        assert pol.tree == PolicyTree("Listen")
        assert pol.value == pytest.approx(-1.0, abs=1e-12)

    def test_matches_brute_force_t2(self, tiger_j):
        m = tiger_j.replace(horizon=2)
        assert count_trees(3, 2, 2) == 27
        a = solve_exact(m)
        b = brute_force_solve(m)
        assert abs(a.value - b.value) <= 1e-9
        assert a.tree == b.tree

    def test_matches_brute_force_t3(self, tiger_j):
        a = solve_exact(tiger_j)
        b = brute_force_solve(tiger_j, max_trees=3**7)
        assert abs(a.value - b.value) <= 1e-9
        assert a.tree == b.tree

    def test_policy_shape(self, tiger_j):
        pol = solve_exact(tiger_j)
        assert pol.tree.depth == 3
        assert pol.horizon == 3
        assert pol.model_name == tiger_j.name

    def test_value_reproduces_through_evaluate(self, tiger_j, tiger2, cand2):
        # Solving and evaluating run one recursion, so the floats agree
        # exactly: on tiger, on random models, and on a CSR-flattened model.
        rng = np.random.default_rng(31)
        models = [tiger_j] + [random_model(rng) for _ in range(30)]
        flat = flatten(tiger2, cand2).model
        assert flat.is_sparse
        models.append(flat)
        for m in models:
            pol = solve_exact(m)
            assert evaluate_policy(m, pol.tree) == pol.value


class TestSolveRandom:
    def test_oracle_agreement(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            m = random_model(rng)
            a = solve_exact(m)
            b = brute_force_solve(m)
            assert abs(a.value - b.value) <= 1e-9
            assert a.tree == b.tree

    def test_solved_value_is_max_over_all_trees(self):
        rng = np.random.default_rng(5)
        m = random_model(rng, max_s=2, max_a=2, max_o=2, max_t=2)
        best = solve_exact(m)
        from ididiv import all_trees

        values = [
            evaluate_policy(m, t)
            for t in all_trees(m.actions, m.observations, m.horizon)
        ]
        assert best.value == pytest.approx(max(values), abs=1e-12)


class TestDeadBranches:
    def test_filler_subtree(self):
        m = _det_obs_model(horizon=2)
        pol = solve_exact(m)
        # a1 pays 1 every step; the impossible z1 branch falls back to the
        # first declared action.
        assert pol.tree.action == "a1"
        assert pol.tree.child("z0").action == "a1"
        assert pol.tree.child("z1") == constant_tree("a0", ("z0", "z1"), 1)
        assert pol.value == pytest.approx(2.0, abs=1e-12)

    def test_brute_force_agrees_on_dead_branches(self):
        m = _det_obs_model(horizon=2)
        a = solve_exact(m)
        b = brute_force_solve(m)
        assert a.tree == b.tree


class TestEvaluate:
    def test_constant_tree_value(self, tiger_j):
        t = constant_tree("Listen", tiger_j.observations, 3)
        assert evaluate_policy(tiger_j, t) == pytest.approx(-3.0, abs=1e-12)

    def test_explicit_belief(self, tiger_j):
        t = constant_tree("OpenLeft", tiger_j.observations, 1)
        v = evaluate_policy(
            tiger_j.replace(horizon=1, initial_belief=np.array([0.0, 1.0])), t
        )
        assert v == pytest.approx(10.0, abs=1e-12)

    def test_depth_mismatch(self, tiger_j):
        t = constant_tree("Listen", tiger_j.observations, 2)
        with pytest.raises(TreeShapeError):
            evaluate_policy(tiger_j, t)

    def test_wrong_alphabet(self, tiger_j):
        t = constant_tree("Listen", ("x", "y"), 3)
        with pytest.raises(TreeShapeError):
            evaluate_policy(tiger_j, t)


class TestEnumerationCap:
    def test_cap_raises(self, tiger_j):
        with pytest.raises(EnumerationCapError, match="2187"):
            brute_force_solve(tiger_j, max_trees=100)

    def test_under_cap_runs(self, tiger_j):
        assert brute_force_solve(tiger_j.replace(horizon=1)).tree == PolicyTree("Listen")
