import dataclasses

import numpy as np
import pytest
from scipy import sparse

from ididiv import (
    EnumerationCapError,
    SparseRows,
    belief_update,
    brute_force_solve,
    builtin_tiger,
    constant_tree,
    evaluate_policy,
    flatten,
    flattening,
    generate_known_models,
    make_candidate_set,
    project_level0,
    solve_exact,
    solve_idid,
    validate_model,
)
from ididiv.trees import all_trees, tree_nodes
from conftest import _peer_trees_t2


def _scipy_csr(blk):
    """The reference scipy matrix holding the same CSR arrays."""
    return sparse.csr_array((blk.data, blk.indices, blk.indptr), shape=blk.shape)


def _assert_products_match_scipy(model, rng, n_random=20):
    """b @ M equals scipy's CSR product bit for bit, block by block.

    Beliefs: the initial one, a posterior after each action and the first
    observation, and random beliefs on supports of random size, up to the
    whole state space, with exact zeros elsewhere.
    """
    S = len(model.states)
    beliefs = [model.initial_belief]
    for a, act in enumerate(model.actions):
        beliefs.append(
            belief_update(model, model.initial_belief, act, model.observations[0])
        )
    for _ in range(n_random):
        b = np.zeros(S)
        support = rng.choice(S, size=int(rng.integers(1, S + 1)), replace=False)
        b[support] = rng.dirichlet(np.ones(len(support)))
        beliefs.append(b)
    for blk in model.transition:
        ref = _scipy_csr(blk)
        for b in beliefs:
            assert np.array_equal(b @ blk, b @ ref)


def _oracle_value(domain, trees, prior, subject_tree, b0=None):
    """Expected subject return against tree-following peers.

    Recomputed straight from the domain tables: the state carried down the
    subject's tree is a list of (peer node, unnormalized joint weight over
    physical states).  No augmented-model table is consulted.
    """
    b0 = domain.start_distribution() if b0 is None else np.asarray(b0, dtype=float)
    ai_idx = {a: k for k, a in enumerate(domain.actions_i)}
    aj_idx = {a: k for k, a in enumerate(domain.actions_j)}
    oi_idx = {o: k for k, o in enumerate(domain.observations_i)}
    oj_idx = {o: k for k, o in enumerate(domain.observations_j)}

    def rec(sub, branch):
        ai = ai_idx[sub.action]
        total = 0.0
        for peer, w in branch:
            total += float(w @ domain.reward_i[:, ai, aj_idx[peer.action]])
        for oi_sym, sub_child in sub.children:
            oi = oi_idx[oi_sym]
            nxt = []
            for peer, w in branch:
                aj = aj_idx[peer.action]
                w2 = (w @ domain.transition[:, ai, aj, :]) * domain.obs_fn_i[
                    :, ai, aj, oi
                ]
                for oj_sym, peer_child in peer.children:
                    nxt.append((peer_child, w2 * domain.obs_fn_j[:, aj, oj_idx[oj_sym]]))
            total += rec(sub_child, nxt)
        return total

    start = [(t, p * b0) for t, p in zip(trees, prior)]
    return rec(subject_tree, start)


@pytest.fixture(scope="module")
def flat2(tiger2, cand2):
    return flatten(tiger2, cand2)


class TestStructure:
    def test_dimensions(self, tiger2, flat2):
        # Three 3-node trees over two physical states.
        assert flat2.node_counts == (3, 3, 3)
        assert flat2.offsets == (0, 6, 12)
        assert len(flat2.model.states) == 18
        assert flat2.model.actions == tiger2.actions_i
        assert flat2.model.observations == tiger2.observations_i

    def test_augmented_index(self, flat2):
        assert flat2.augmented_index(0, 0, 0) == 0
        assert flat2.augmented_index(1, 0, 1) == 7
        assert flat2.augmented_index(2, 2, 0) == 16
        names = flat2.model.states
        assert names[flat2.augmented_index(1, 2, 1)] == "m1:p2:TigerRight"

    def test_initial_belief_roots_only(self, tiger2, flat2, cand2):
        b = flat2.model.initial_belief
        for m in range(3):
            base = flat2.offsets[m]
            np.testing.assert_allclose(
                b[base : base + 2], cand2.prior[m] * tiger2.start_distribution()
            )
            assert np.all(b[base + 2 : base + 6] == 0.0)

    def test_root_observation_rows_uniform(self, flat2):
        # Root positions are never successors; their rows are filler.
        n_oi = len(flat2.model.observations)
        for m in range(3):
            base = flat2.offsets[m]
            np.testing.assert_allclose(flat2.model.obs_fn[base : base + 2], 1.0 / n_oi)

    def test_candidate_depth_enforced(self, tiger2):
        shallow = make_candidate_set(
            [constant_tree("Listen", ("GrowlLeft", "GrowlRight"), 1)], 2
        )
        with pytest.raises(ValueError, match="below the domain horizon"):
            flatten(tiger2, shallow)

    def test_candidate_alphabet_enforced(self, tiger2):
        bad = make_candidate_set([constant_tree("Listen", ("Hiss", "Purr"), 2)], 2)
        with pytest.raises(Exception):
            flatten(tiger2, bad)


class TestOracle:
    def test_policy_values_match_oracle_everywhere(self, tiger2, cand2, flat2):
        # Sweep every depth-2 subject tree: the flattened model must price
        # each one exactly as the direct joint-process recursion does.
        worst = 0.0
        for t in all_trees(tiger2.actions_i, tiger2.observations_i, 2):
            flat_v = evaluate_policy(flat2.model, t)
            oracle_v = _oracle_value(
                tiger2, cand2.trees, cand2.prior, t
            )
            worst = max(worst, abs(flat_v - oracle_v))
        assert worst < 1e-9

    def test_solved_value_is_oracle_max(self, tiger2, cand2, flat2):
        pol = solve_idid(flat2)
        best = max(
            _oracle_value(tiger2, cand2.trees, cand2.prior, t)
            for t in all_trees(tiger2.actions_i, tiger2.observations_i, 2)
        )
        assert pol.value == pytest.approx(best, abs=1e-9)
        assert _oracle_value(
            tiger2, cand2.trees, cand2.prior, pol.tree
        ) == pytest.approx(pol.value, abs=1e-9)

    def test_brute_force_on_augmented_model(self, flat2):
        pol = solve_idid(flat2)
        bf = brute_force_solve(flat2.model)
        assert bf.value == pol.value
        assert bf.tree == pol.tree

    def test_horizon_three_exceeds_enumeration_cap(self, tiger2):
        # 3 ** 43 subject trees at depth 3: enumeration must refuse.
        d3 = builtin_tiger(3)
        cand = make_candidate_set(
            [constant_tree("Listen", ("GrowlLeft", "GrowlRight"), 3)], 2
        )
        flat = flatten(d3, cand)
        with pytest.raises(EnumerationCapError):
            brute_force_solve(flat.model)
        pol = solve_idid(flat)
        assert np.isfinite(pol.value)


class TestPriorAlgebra:
    def test_mixture_linearity(self, tiger2):
        # evaluate under a mixed prior == prior-weighted point-mass values.
        trees = _peer_trees_t2()
        prior = np.array([0.6, 0.3, 0.1])
        mixed = flatten(tiger2, make_candidate_set(trees, 2, prior=prior))
        subject = solve_idid(mixed).tree
        v_mixed = evaluate_policy(mixed.model, subject)
        v_points = 0.0
        for m in range(3):
            point = flatten(tiger2, make_candidate_set([trees[m]], 2))
            v_points += float(prior[m]) * evaluate_policy(point.model, subject)
        assert v_mixed == pytest.approx(v_points, abs=1e-9)

    def test_zero_prior_candidate_is_inert(self, tiger2):
        trees = _peer_trees_t2()
        full = flatten(
            tiger2,
            make_candidate_set(trees, 2, prior=np.array([0.7, 0.3, 0.0])),
        )
        trimmed = flatten(
            tiger2,
            make_candidate_set(trees[:2], 2, prior=np.array([0.7, 0.3])),
        )
        assert solve_idid(full).value == pytest.approx(
            solve_idid(trimmed).value, abs=1e-12
        )

    def test_point_mass_prior(self, tiger2):
        trees = _peer_trees_t2()
        via_pair = flatten(
            tiger2, make_candidate_set(trees[:2], 2, prior=np.array([1.0, 0.0]))
        )
        alone = flatten(tiger2, make_candidate_set(trees[:1], 2))
        assert solve_idid(via_pair).value == pytest.approx(
            solve_idid(alone).value, abs=1e-12
        )
        assert solve_idid(via_pair).tree == solve_idid(alone).tree


def _dense_reference(model):
    """The same model with a dense [S, A, S'] table made from its CSR blocks."""
    T = np.stack([_scipy_csr(blk).toarray() for blk in model.transition], axis=1)
    return model.replace(transition=T)


class TestSparsePath:
    def test_tiger_model_is_csr(self, tiger2, cand2):
        model = flatten(tiger2, cand2).model
        assert isinstance(model.transition, tuple)
        assert len(model.transition) == len(model.actions)
        for blk in model.transition:
            assert isinstance(blk, SparseRows)
            assert blk.indices.dtype == np.int32

    def test_sparse_matches_dense(self, tiger2, cand2):
        sp = flatten(tiger2, cand2)
        dense = _dense_reference(sp.model)
        validate_model(dense)
        assert not dense.is_sparse
        pd = solve_exact(dense)
        ps = solve_idid(sp)
        assert ps.value == pytest.approx(pd.value, abs=1e-12)
        assert ps.tree == pd.tree

    def test_products_match_scipy_exactly(self, tiger2, cand2):
        model = flatten(tiger2, cand2).model
        assert model.is_sparse
        assert all(blk.indices.dtype == np.int32 for blk in model.transition)
        _assert_products_match_scipy(model, np.random.default_rng(5))

    def test_uav_products_match_scipy_exactly(self, uav):
        known = generate_known_models(project_level0(uav, "j"), 3, seed=0)
        model = flatten(uav, make_candidate_set(known, len(uav.observations_j))).model
        assert model.is_sparse
        _assert_products_match_scipy(model, np.random.default_rng(6), n_random=5)

    def test_explicit_zeros_are_kept(self, tiger2, cand2):
        # Noiseless peer sensing makes half the observation-weighted
        # entries exactly zero; they stay stored and counted in nnz.
        obs_j = np.zeros_like(tiger2.obs_fn_j)
        obs_j[0, :, 0] = 1.0  # first state: always the first growl
        obs_j[1, :, 1] = 1.0
        sharp = dataclasses.replace(tiger2, obs_fn_j=obs_j)
        model = flatten(sharp, cand2).model
        aj_index = {a: k for k, a in enumerate(sharp.actions_j)}
        n_oj = len(sharp.observations_j)
        for ai, blk in enumerate(model.transition):
            expect = 0
            for tree in cand2.trees:
                for node in tree_nodes(tree):
                    nz = np.count_nonzero(sharp.transition[:, ai, aj_index[node.action], :])
                    expect += nz * (n_oj if node.children else 1)
            assert blk.nnz == expect
            assert np.count_nonzero(blk.data == 0.0) > 0

    def test_too_many_states_for_int32_indices(self, tiger2, cand2, monkeypatch):
        # cand2 flattens to 18 augmented states; pretend int32 ends at 17.
        monkeypatch.setattr(flattening, "MAX_STATES", 17)
        with pytest.raises(ValueError, match="int32"):
            flatten(tiger2, cand2)

    def test_custom_initial_physical_belief(self, tiger2, cand2):
        left = dataclasses.replace(tiger2, start=np.array([1.0, 0.0]))
        b = flatten(left, cand2).model.initial_belief
        assert b[0] == pytest.approx(0.5)  # prior 0.5 on candidate 0
        assert b[1] == 0.0
        with pytest.raises(ValueError, match="initial_belief"):
            flatten(dataclasses.replace(tiger2, start=np.array([0.9, 0.2])), cand2)
