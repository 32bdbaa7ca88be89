import gc

import numpy as np
import pytest

from ididiv import (
    BehaviorSequence,
    build_matrix,
    canonical_encode,
    convert_to_dbn,
    generate_known_models,
    generation,
    sample_tree,
    solve_exact,
    validate_tree,
)
from ididiv.trees import PolicyTree
from conftest import _det_model_2a


def _anchor(actions, observations):
    return BehaviorSequence(tuple(actions), tuple(observations))


def _tree(model, row):
    """The tree a sampled preorder row spells."""
    return PolicyTree(row, model.observations)


def _grown(model, anchor, b0):
    row = []
    generation._grow(model, anchor, b0, 0, True, row)
    return _tree(model, row)


class TestSampleTree:
    def test_shape_valid(self, tiger_j):
        dbn = convert_to_dbn(tiger_j)
        rng = np.random.default_rng(0)
        anchor = _anchor(("Listen", "Listen", "Listen"), ("GrowlLeft", "GrowlLeft"))
        for _ in range(10):
            t = _tree(dbn, sample_tree(dbn, anchor, rng))
            validate_tree(t, tiger_j.observations, depth=3, actions=tiger_j.actions)

    def test_anchor_path_copied(self, tiger_j):
        dbn = convert_to_dbn(tiger_j)
        rng = np.random.default_rng(1)
        anchor = _anchor(
            ("OpenLeft", "Listen", "OpenRight"), ("GrowlLeft", "GrowlRight")
        )
        t = _tree(dbn, sample_tree(dbn, anchor, rng))
        assert anchor in build_matrix([t]).columns
        assert t.action == "OpenLeft"

    def test_off_anchor_is_myopic(self):
        # Noiseless model, certain s1: leaving the anchor at z1 keeps the
        # point-mass belief, where a1 (reward 2) beats a0 (reward 0).
        m = _det_model_2a()
        anchor = _anchor(("a0", "a0"), ("z0",))
        b0 = np.array([0.0, 1.0])
        t = _grown(m, anchor, b0)
        assert t.action == "a0"
        assert dict(t.children)["z0"].action == "a0"  # anchor copied
        assert dict(t.children)["z1"].action == "a1"  # myopic off anchor

    @pytest.mark.parametrize("gain, action", [(0.5e-9, 0), (2e-9, 1)])
    def test_myopic_tie_rule(self, gain, action):
        # The solver's rule: a later action must beat the earlier by more
        # than TIE_TOL relative.  Leaving the anchor at z1 gives the
        # point-mass belief on s1, where a1 gains ``gain`` over a0.
        m = _det_model_2a(reward=[[1.0, 1.0 + gain], [1.0, 1.0 + gain]])
        t = _grown(m, _anchor(("a0", "a0"), ("z0",)), np.array([0.5, 0.5]))
        assert dict(t.children)["z0"].action == "a0"  # anchor copied
        assert dict(t.children)["z1"].action == m.actions[action]

    def test_single_anchor_no_draw(self, tiger_j):
        # The root belief is the only draw: the tree is the one grown from
        # the rng's first Dirichlet sample.
        dbn = convert_to_dbn(tiger_j)
        anchor = _anchor(
            ("Listen", "OpenLeft", "Listen"), ("GrowlLeft", "GrowlRight")
        )
        b0 = np.random.default_rng(3).dirichlet(np.ones(len(tiger_j.states)))
        t = _tree(dbn, sample_tree(dbn, anchor, np.random.default_rng(3)))
        assert t == _grown(tiger_j, anchor, b0)

    def test_anchor_length_enforced(self, tiger_j):
        dbn = convert_to_dbn(tiger_j)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_tree(dbn, _anchor(("Listen",), ()), rng)

    def test_anchor_symbols_enforced(self, tiger_j):
        dbn = convert_to_dbn(tiger_j)
        rng = np.random.default_rng(0)
        bad = _anchor(("Sing", "Listen", "Listen"), ("GrowlLeft", "GrowlLeft"))
        with pytest.raises(ValueError):
            sample_tree(dbn, bad, rng)

    def test_leaves_no_cyclic_garbage(self, tiger_j):
        # Growing a tree builds no reference cycle, so everything a call
        # drops is freed when it returns, not when the collector runs.
        dbn = convert_to_dbn(tiger_j)
        anchor = _anchor(("Listen", "Listen", "Listen"), ("GrowlLeft", "GrowlRight"))
        rng = np.random.default_rng(0)
        gc.disable()
        try:
            gc.collect()
            sample_tree(dbn, anchor, rng)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_zero_probability_branch_fallback(self):
        # Observation z1 has zero likelihood under every action, yet the
        # sampled tree still fills that branch.
        m = _det_model_2a()
        obs = np.zeros((2, 2, 2))
        obs[:, :, 0] = 1.0
        m = m.replace(obs_fn=obs)
        dbn = convert_to_dbn(m)
        anchor = _anchor(("a0", "a0"), ("z0",))
        t = _tree(m, sample_tree(dbn, anchor, np.random.default_rng(0)))
        validate_tree(t, m.observations, depth=2, actions=m.actions)


class TestGenerateKnownModels:
    def test_tiger_distinct_optima(self, tiger_j):
        trees = generate_known_models(tiger_j, 3, seed=0)
        assert len(trees) == 3
        encs = [canonical_encode(t) for t in trees]
        assert len(set(encs)) == 3
        for t in trees:
            validate_tree(t, tiger_j.observations, depth=3, actions=tiger_j.actions)

    def test_each_tree_is_optimal_for_some_belief(self, tiger_j):
        # Replay the rng stream: every returned tree must equal the exact
        # optimum for the belief that produced it.
        trees = generate_known_models(tiger_j, 3, seed=12)
        rng = np.random.default_rng(12)
        seen = set()
        replayed = []
        while len(replayed) < 3:
            b = rng.dirichlet(np.ones(2))
            pol = solve_exact(tiger_j.replace(initial_belief=b))
            enc = canonical_encode(pol.tree)
            if enc not in seen:
                seen.add(enc)
                replayed.append(pol.tree)
        assert replayed == trees

    def test_reproducible(self, tiger_j):
        assert generate_known_models(tiger_j, 2, seed=4) == generate_known_models(
            tiger_j, 2, seed=4
        )

    def test_budget_exhaustion(self):
        # One action, one possible tree: asking for two must fail.
        m = _det_model_2a()
        one = m.replace(
            actions=("a0",),
            transition=m.transition[:, :1],
            obs_fn=m.obs_fn[:, :1],
            reward=m.reward[:, :1],
        )
        with pytest.raises(RuntimeError, match="distinct optimal trees"):
            generate_known_models(one, 2, seed=0)

    def test_infeasible_count_fails_before_solving(self, tiger_j, monkeypatch):
        # Tiger at T=2 has 3 ** 3 = 27 complete trees, so 28 cannot exist.
        calls = []
        real = generation.solve_exact

        def counted(model):
            calls.append(1)
            return real(model)

        monkeypatch.setattr(generation, "solve_exact", counted)
        with pytest.raises(RuntimeError, match="distinct optimal trees"):
            generate_known_models(tiger_j.replace(horizon=2), 28, seed=0)
        assert len(calls) == 0

    def test_bad_count(self, tiger_j):
        with pytest.raises(ValueError):
            generate_known_models(tiger_j, 0)
