import numpy as np
import pytest

from ididiv import (
    EnumerationCapError,
    brute_force_solve,
    builtin_tiger,
    constant_tree,
    evaluate_policy,
    flatten,
    flattening,
    make_candidate_set,
    solve_idid,
)
from ididiv.trees import all_trees
from conftest import _peer_trees_t2


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


class TestSparsePath:
    def test_sparse_matches_dense(self, tiger2, cand2, monkeypatch):
        dense = flatten(tiger2, cand2)
        monkeypatch.setattr(flattening, "SPARSE_THRESHOLD", 0)
        sp = flatten(tiger2, cand2)
        assert not dense.model.is_sparse
        assert sp.model.is_sparse
        for a in range(len(dense.model.actions)):
            np.testing.assert_allclose(
                sp.model.transition_matrix(a).toarray(),
                dense.model.transition_matrix(a),
                atol=1e-15,
            )
        pd = solve_idid(dense)
        ps = solve_idid(sp)
        assert ps.value == pytest.approx(pd.value, abs=1e-12)
        assert ps.tree == pd.tree

    def test_custom_initial_physical_belief(self, tiger2, cand2):
        flat = flatten(tiger2, cand2, b0_phys=np.array([1.0, 0.0]))
        b = flat.model.initial_belief
        assert b[0] == pytest.approx(0.5)  # prior 0.5 on candidate 0
        assert b[1] == 0.0
        with pytest.raises(ValueError):
            flatten(tiger2, cand2, b0_phys=np.array([0.9, 0.2]))
