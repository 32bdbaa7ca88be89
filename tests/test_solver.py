import dataclasses

import numpy as np
import pytest

from ididiv import (
    EnumerationCapError,
    FlatModel,
    SelectionConfig,
    SingleAgentModel,
    TreeShapeError,
    brute_force_solve,
    builtin_domain,
    constant_tree,
    count_trees,
    evaluate_policy,
    flatten,
    generate_known_models,
    project_level0,
    run_experiment_grid,
    select_topk,
    solve_exact,
    solver,
)
from ididiv.runs import ALGORITHMS, run_cell
from ididiv.solver import TIE_TOL
from conftest import nested, random_model


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


class TestSolveTiger:
    def test_horizon_one_listens(self, tiger_j):
        pol = solve_exact(dataclasses.replace(tiger_j, horizon=1))
        # Opening at uniform belief scores -45, listening -1.
        assert pol.tree == nested("Listen")
        assert pol.value == pytest.approx(-1.0, abs=1e-12)

    def test_matches_brute_force_t2(self, tiger_j):
        m = dataclasses.replace(tiger_j, horizon=2)
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
        assert pol.tree.depth == tiger_j.horizon == 3
        assert pol.tree.observations == tiger_j.observations

    def test_value_reproduces_through_evaluate(self, tiger_j, tiger2, cand2):
        # Solving and evaluating run one recursion, so the floats agree
        # exactly: on tiger, on random models, and on a flattened model.
        rng = np.random.default_rng(31)
        models = [tiger_j] + [random_model(rng) for _ in range(30)]
        flat = flatten(tiger2, cand2).model
        assert isinstance(flat, FlatModel)
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


def _mirror_model(perm, horizon, seed=0):
    """Two actions that mirror each other: R is L with the states reversed.

    The reward, transition and observation tables of R are those of L
    under the state reversal, the observations and the initial belief are
    symmetric, so from the initial belief L and R have equal value.  The
    states are then relabeled by ``perm``, which changes only the order in
    which sums over states add up.
    """
    n = len(perm)
    rng = np.random.default_rng(seed)
    rev = np.arange(n)[::-1]
    x = rng.uniform(-1.0, 1.0, n)
    T_L = rng.dirichlet(np.ones(n), size=n)
    y = rng.dirichlet(np.ones(2), size=n)
    y = (y + y[rev]) / 2
    T = np.stack([T_L, T_L[rev][:, rev]], axis=1)
    return SingleAgentModel(
        name="mirror",
        states=tuple("s%d" % k for k in range(n)),
        actions=("L", "R"),
        observations=("z0", "z1"),
        transition=T[perm][:, :, perm],
        obs_fn=np.stack([y, y], axis=1)[perm],
        reward=np.stack([x, x[rev]], axis=1)[perm],
        initial_belief=np.full(n, 1.0 / n),
        horizon=horizon,
    )


class TestTieRule:
    @pytest.mark.parametrize("horizon", [1, 2, 3])
    def test_symmetric_tie_survives_state_permutations(self, horizon):
        # Equal values that differ by rounding, in either direction
        # depending on the state order, go to the earlier action.
        rng = np.random.default_rng(100)
        perms = [np.arange(8)] + [rng.permutation(8) for _ in range(7)]
        trees = {solve_exact(_mirror_model(p, horizon)).tree for p in perms}
        assert len(trees) == 1
        assert next(iter(trees)).action == "L"
        if horizon <= 2:
            for p in perms:
                m = _mirror_model(p, horizon)
                assert brute_force_solve(m).tree == solve_exact(m).tree

    @pytest.mark.parametrize("gain, action", [(0.5 * TIE_TOL, "a0"), (2 * TIE_TOL, "a1")])
    def test_later_action_must_win_by_the_margin(self, gain, action):
        m = dataclasses.replace(_det_obs_model(horizon=1), reward=np.array([[1.0, 1.0 + gain]]))
        assert solve_exact(m).tree.action == action
        assert brute_force_solve(m).tree.action == action


class TestDeadBranches:
    def test_filler_subtree(self):
        m = _det_obs_model(horizon=2)
        pol = solve_exact(m)
        # a1 pays 1 every step; the impossible z1 branch falls back to the
        # first declared action.
        assert pol.tree.action == "a1"
        assert dict(pol.tree.children)["z0"].action == "a1"
        assert dict(pol.tree.children)["z1"] == constant_tree("a0", ("z0", "z1"), 1)
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
            dataclasses.replace(tiger_j, horizon=1, initial_belief=np.array([0.0, 1.0])), t
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
        assert brute_force_solve(dataclasses.replace(tiger_j, horizon=1)).tree == nested("Listen")


def _tiger_cells():
    domain = builtin_domain("tiger", 3)
    for alg in ALGORITHMS:
        run_cell({
            "domain": "tiger", "horizon": 3, "m": 6, "k": 3,
            "true_mode": "random-generated", "algorithm": alg,
            "seed": 0, "rounds": 50, "patience": 20,
        }, domain)


def _uav_topk(horizon):
    # What `ididiv --domain uav --seed 0 topk --known 3 --k-max 30` runs,
    # under both measures.
    level0 = project_level0(builtin_domain("uav", horizon), "j")
    known_ss, select_ss = np.random.SeedSequence(0).spawn(2)
    known = generate_known_models(level0, 3, seed=known_ss)
    for measure in ("MDP", "MDF"):
        select_topk(known, level0, SelectionConfig(measure=measure, k_max=30, seed=select_ss))


def _grid(tmp_path, **config):
    assert not run_experiment_grid(config, tmp_path, workers=1).errors


_MARGIN_WORKLOADS = {
    "criterion-9-grid": lambda tmp: _grid(
        tmp, domain="tiger", horizons=[2], model_counts=[2], expansions=[1],
        algorithms=list(ALGORITHMS), true_modes=["from-set", "random-generated"],
        rounds=3, seeds=[0, 1],
    ),
    "tiger-t3-cells": lambda tmp: _tiger_cells(),
    "uav-t3-topk": lambda tmp: _uav_topk(3),
    "uav-t4-topk": lambda tmp: _uav_topk(4),
    "uav-plan-grid": lambda tmp: _grid(
        tmp, domain="uav", horizons=[3], model_counts=[3], expansions=[3],
        algorithms=list(ALGORITHMS), true_modes=["from-set"], rounds=50, seeds=[0],
    ),
}


class TestDecisionMargins:
    """Every choice between actions or trees, the solver's and the tree
    sampler's, goes through ``solver._beats``.  A choice flips only when its
    gap ``q - best`` lies within rounding of the boundary
    ``TIE_TOL * max(1, |best|)``; none in these workloads comes within 1e-12
    of it, relative, so a change in the last bits of a sum leaves every
    chosen tree as it is."""

    @pytest.mark.parametrize("workload", list(_MARGIN_WORKLOADS))
    def test_no_choice_near_the_tie_boundary(self, workload, monkeypatch, tmp_path):
        margins = []
        beats = solver._beats

        def recorded(q, best):
            scale = max(1.0, abs(best))
            margins.append(abs(q - best - TIE_TOL * scale) / scale)
            return beats(q, best)

        monkeypatch.setattr(solver, "_beats", recorded)
        _MARGIN_WORKLOADS[workload](tmp_path)
        assert margins
        assert min(margins) >= 1e-12
