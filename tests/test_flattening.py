import dataclasses
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import ididiv
from ididiv import (
    DomainValidationError,
    EnumerationCapError,
    JointTransition,
    SelectionConfig,
    SingleAgentModel,
    brute_force_solve,
    builtin_domain,
    constant_tree,
    evaluate_policy,
    flatten,
    generate_known_models,
    make_candidate_set,
    project_level0,
    select_topk,
    solve_exact,
    solve_idid,
)
from ididiv.domains import domain_to_obj
from ididiv.flattening import FannedRows, FlatModel
from ididiv.trees import all_trees, node_table
from conftest import _peer_trees_t2


def _dense(b, n):
    """A sparse (keys, vals) belief as a length-n vector."""
    out = np.zeros(n)
    out[b[0]] = b[1]
    return out


def _beliefs(model, rng, n_random):
    """The initial belief, a posterior after each action and the first
    observation, and random beliefs on supports of random size, up to the
    whole state space, as sparse (keys, vals) pairs.
    """
    S = len(model.states)
    b0 = model.initial_belief
    beliefs = [b0]
    for a in range(len(model.actions)):
        post = model.condition(model.predict(b0, a), a, 0)[1]
        assert post is not None
        beliefs.append(post)
    for _ in range(n_random):
        support = np.sort(rng.choice(S, size=int(rng.integers(1, S + 1)), replace=False))
        beliefs.append((support, rng.dirichlet(np.ones(len(support)))))
    return beliefs


def _assert_products_match_scipy(case, rng, n_random=20):
    """predict, scattered, equals scipy's CSR product bit for bit, action by
    action, for a (domain, candidates, flattened) triple."""
    domain, candidates, flat = case
    model = flat.model
    n = len(model.states)
    refs = _csr_oracle(domain, candidates)
    for b in _beliefs(model, rng, n_random):
        for a, ref in enumerate(refs):
            assert np.array_equal(_dense(model.predict(b, a), n), _dense(b, n) @ ref)


def _oracle_value(domain, trees, prior, subject_tree, b0=None):
    """Expected subject return against tree-following peers.

    Recomputed straight from the domain tables: the state carried down the
    subject's tree is a list of (peer node, unnormalized joint weight over
    physical states).  No augmented-model table is consulted.
    """
    b0 = domain.start if b0 is None else np.asarray(b0, dtype=float)
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
        # Three 3-node trees over two physical states; a state is its index.
        assert len(flat2.model.peer) == 9
        assert flat2.model.states == range(18)
        assert flat2.model.actions == tiger2.actions_i
        assert flat2.model.observations == tiger2.observations_i

    def test_initial_belief_roots_only(self, tiger2, flat2, cand2):
        b = _dense(flat2.model.initial_belief, 18)
        for m in range(3):
            base = 6 * m
            np.testing.assert_allclose(
                b[base : base + 2], cand2.prior[m] * tiger2.start
            )
            assert np.all(b[base + 2 : base + 6] == 0.0)

    def test_root_observation_rows_uniform(self, flat2):
        # Root positions are never successors; their rows are filler.
        model = flat2.model
        n_oi = len(model.observations)
        roots = np.array([6 * m + s for m in range(3) for s in range(2)])
        for a in range(len(model.actions)):
            for o in range(n_oi):
                assert np.all(model.obs_at(roots, a, o) == 1.0 / n_oi)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda k, v: (k, 1.4 * v), r"row \(\) sums to 1\.39"),
            (lambda k, v: (k[::-1], v), r"keys must strictly ascend in range\(18\)"),
            (lambda k, v: (np.r_[k[:-1], k[-2]], v), r"keys must strictly ascend"),
            (lambda k, v: (k - k[0] - 1, v), r"keys must strictly ascend"),
            (lambda k, v: (k + 18 - k[-1], v), r"keys must strictly ascend"),
            (lambda k, v: (k + 0.5, v), r"keys must strictly ascend"),
            (lambda k, v: (k, v[:-1]), r"shape \(5,\), expected \(6,\)"),
        ],
        ids=["scaled", "descending", "repeated", "negative", "outside", "fraction", "short"],
    )
    def test_initial_belief_is_a_distribution(self, flat2, edit, message):
        # Scaled by 1.4, the belief solved to -2.8 where its own gives -2.0.
        model = flat2.model
        assert solve_exact(model).value == -2.0
        with pytest.raises(DomainValidationError, match="initial_belief: " + message):
            dataclasses.replace(model, initial_belief=edit(*model.initial_belief))

    def test_initial_belief_near_tolerance(self, tiger2):
        # A start and a prior each 9.8e-13 above 1 pass their own checks;
        # their product, 1.96e-12 above 1, is still a belief flatten builds.
        up = np.full(2, 0.5 + 4.9e-13)
        domain = dataclasses.replace(tiger2, start=up)
        cands = make_candidate_set(_peer_trees_t2()[:2], 2, prior=up)
        vals = flatten(domain, cands).model.initial_belief[1]
        assert abs(vals.sum() - 1.0) > 1e-12

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
        d3 = builtin_domain("tiger", 3)
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


def _csr_oracle(domain, candidates):
    """One scipy CSR matrix per subject action, as flatten stored them
    before its per-action operators: every (row, column) entry with explicit
    zeros, rows ascending, then peer observation, then physical column,
    with int32 columns.
    """
    S = len(domain.states)
    n_oj = len(domain.observations_j)
    aj_index = {a: k for k, a in enumerate(domain.actions_j)}
    layouts = [
        ([aj_index[a] for a in t.preorder], node_table(n_oj, t.depth).children)
        for t in candidates.trees
    ]
    s_aug = S * sum(len(acts) for acts, _ in layouts)
    blocks = []
    for ai in range(len(domain.actions_i)):
        rows, cols, vals = [], [], []
        first = 0
        for acts, children in layouts:
            for pos, aj in enumerate(acts):
                # The pair's stored rows, in row then column order: tables
                # built from entries, and the built-ins, store no zeros.
                dense = domain.transition[:, ai, aj, :]
                s, c = np.nonzero(dense)
                r, p = first + pos * S + s, dense[s, c]
                if children[pos, 0] < 0:
                    # Leaf: the position self-loops, observation mass sums out.
                    rows.append(r)
                    cols.append(first + pos * S + c)
                    vals.append(p)
                    continue
                for o in range(n_oj):
                    rows.append(r)
                    cols.append(first + int(children[pos, o]) * S + c)
                    vals.append(p * domain.obs_fn_j[:, aj, o][c])
            first += len(acts) * S
        rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
        order = np.argsort(rows, kind="stable")
        indptr = np.zeros(s_aug + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=s_aug), out=indptr[1:])
        blocks.append(
            sparse.csr_array(
                (vals[order], cols[order].astype(np.int32), indptr), shape=(s_aug, s_aug)
            )
        )
    return tuple(blocks)


def _dense_tables(domain, candidates):
    """The [S_aug, Ai, Oi] observation and [S_aug, Ai] reward arrays flatten
    stored before it read the domain's tables: one copy of ``obs_fn_i`` and
    ``reward_i`` per position, uniform observation rows at the roots.
    """
    S = len(domain.states)
    n_oi, n_oj = len(domain.observations_i), len(domain.observations_j)
    aj_index = {a: k for k, a in enumerate(domain.actions_j)}
    layouts = [
        ([aj_index[a] for a in t.preorder], node_table(n_oj, t.depth).parent)
        for t in candidates.trees
    ]
    s_aug = S * sum(len(acts) for acts, _ in layouts)
    O_aug = np.empty((s_aug, len(domain.actions_i), n_oi))
    R_aug = np.empty((s_aug, len(domain.actions_i)))
    base = 0
    for acts, parents in layouts:
        for pos, aj in enumerate(acts):
            par = int(parents[pos])
            if par < 0:
                O_aug[base : base + S] = 1.0 / n_oi
            else:
                O_aug[base : base + S] = domain.obs_fn_i[:, :, acts[par], :]
            R_aug[base : base + S] = domain.reward_i[:, :, aj]
            base += S
    return O_aug, R_aug


@dataclass(frozen=True, eq=False)
class _DenseOracle:
    """The flattened model as flatten built it before sparse beliefs: dense
    beliefs, full-length sums, and per-position copies of the domain tables.
    ``product(b, a)`` is the transition's dense row-vector product.
    """

    name: str
    actions: tuple
    observations: tuple
    horizon: int
    initial_belief: np.ndarray
    product: object
    O_aug: np.ndarray
    R_aug: np.ndarray

    def expected_reward(self, b, a):
        return float(np.add.reduce(self.R_aug[:, a] * b))

    def predict(self, b, a):
        return self.product(b, a)

    def condition(self, pred, a, o):
        joint = self.O_aug[:, a, o] * pred
        p = float(np.add.reduce(joint))
        if p > 0.0:
            joint /= p
            return p, joint
        return p, None


def _oracle_model(case, product=None):
    """The dense-belief oracle of a (domain, candidates, flattened) triple.
    Its transition is the CSR oracle's unless ``product`` is given."""
    domain, candidates, flat = case
    model = flat.model
    if product is None:
        blocks = _csr_oracle(domain, candidates)

        def product(b, a):
            return b @ blocks[a]

    O_aug, R_aug = _dense_tables(domain, candidates)
    return _DenseOracle(
        name=model.name,
        actions=model.actions,
        observations=model.observations,
        horizon=model.horizon,
        initial_belief=_dense(model.initial_belief, len(model.states)),
        product=product,
        O_aug=O_aug,
        R_aug=R_aug,
    )


def _dense_reference(case):
    """The flattened model of a (domain, candidates, flattened) triple as a
    SingleAgentModel with a dense [S, A, S'] table made from the CSR
    oracle's blocks, its states labeled ``s0``, ``s1``, ..."""
    domain, candidates, flat = case
    model = flat.model
    oracle = _oracle_model(case)
    blocks = _csr_oracle(domain, candidates)
    return SingleAgentModel(
        name=model.name,
        states=tuple("s%d" % k for k in model.states),
        actions=model.actions,
        observations=model.observations,
        transition=np.stack([blk.toarray() for blk in blocks], axis=1),
        obs_fn=oracle.O_aug,
        reward=oracle.R_aug,
        initial_belief=oracle.initial_belief,
        horizon=model.horizon,
    )


def _assert_close_solves(mine, ref):
    """Equal trees, and values within ROADMAP item 2's 1e-12 relative."""
    assert mine.tree == ref.tree
    assert abs(mine.value - ref.value) <= 1e-12 * abs(ref.value)


def _uav_mdf6(uav):
    level0 = project_level0(uav, "j")
    known = generate_known_models(level0, 3, seed=0)
    return select_topk(known, level0, SelectionConfig(measure="MDF", k_max=6, seed=0))


@pytest.fixture(scope="module")
def oracle_sets(tiger2, cand2, uav):
    tiger3 = builtin_domain("tiger", 3)
    known3 = generate_known_models(project_level0(tiger3, "j"), 3, seed=0)
    cand3 = make_candidate_set(known3, len(tiger3.observations_j))
    uav6 = _uav_mdf6(uav)
    assert len(uav6.trees) == 6
    return {
        "tiger-T2": (tiger2, cand2, flatten(tiger2, cand2)),
        "tiger-T3": (tiger3, cand3, flatten(tiger3, cand3)),
        "uav-T3-mdf6": (uav, uav6, flatten(uav, uav6)),
    }


class TestOperatorOracle:
    """The per-action operators against the CSR blocks flatten used to build."""

    @pytest.mark.parametrize("name", ["tiger-T2", "tiger-T3", "uav-T3-mdf6"])
    def test_products_equal_the_csr_bit_for_bit(self, oracle_sets, name):
        domain, candidates, flat = oracle_sets[name]
        model = flat.model
        for op, blk in zip(model.transition, _csr_oracle(domain, candidates)):
            assert isinstance(op, FannedRows)
            assert op.shape == blk.shape
            assert op.nnz == blk.nnz
        n_random = 5 if name.startswith("uav") else 20
        _assert_products_match_scipy(oracle_sets[name], np.random.default_rng(7), n_random)

    @pytest.mark.parametrize("name", ["tiger-T2", "tiger-T3", "uav-T3-mdf6"])
    def test_solve_equals_the_oracle_solve(self, oracle_sets, name):
        case = oracle_sets[name]
        _assert_close_solves(solve_idid(case[2]), solve_exact(_oracle_model(case)))


class TestTableOracle:
    """The gathered likelihoods and rewards against the dense tables flatten
    used to build."""

    @pytest.mark.parametrize("name", ["tiger-T2", "tiger-T3", "uav-T3-mdf6"])
    def test_columns_equal_the_dense_tables(self, oracle_sets, name):
        domain, candidates, flat = oracle_sets[name]
        model = flat.model
        O_aug, R_aug = _dense_tables(domain, candidates)
        keys = np.arange(len(model.states))
        for a in range(len(model.actions)):
            assert np.array_equal(model.reward_at(keys, a), R_aug[:, a])
            for o in range(len(model.observations)):
                assert np.array_equal(model.obs_at(keys, a, o), O_aug[:, a, o])

    @pytest.mark.parametrize("name", ["tiger-T2", "tiger-T3"])
    def test_solve_equals_the_dense_tables_solve(self, oracle_sets, name):
        # Only the tables differ: the oracle moves its dense beliefs with the
        # model's own operators.
        case = oracle_sets[name]
        flat = case[2]
        model = flat.model
        n = len(model.states)

        def product(b, a):
            nz = np.flatnonzero(b)
            return _dense(model.transition[a].rmatvec(nz, b[nz]), n)

        _assert_close_solves(solve_idid(flat), solve_exact(_oracle_model(case, product)))

    def test_model_shares_the_domain_tables(self, tiger2, cand2):
        model = flatten(tiger2, cand2).model
        assert isinstance(model, FlatModel)
        assert model.obs_fn_i is tiger2.obs_fn_i
        assert model.reward_i is tiger2.reward_i
        assert all(op.joint is tiger2.transition for op in model.transition)


_THREADED_SOLVE = """
from ididiv import (
    SelectionConfig, builtin_domain, canonical_encode, flatten,
    generate_known_models, project_level0, select_topk, solve_exact, solve_idid,
)

domain = builtin_domain("uav", 3)
level0 = project_level0(domain, "j")
known = generate_known_models(level0, 3, seed=0)
candidates = select_topk(known, level0, SelectionConfig(measure="MDF", k_max=6, seed=0))
pol = solve_idid(flatten(domain, candidates))
print(repr(pol.value))
print(canonical_encode(pol.tree))
pol = solve_exact(project_level0(builtin_domain("tiger", 3), "j"))
print(repr(pol.value))
print(canonical_encode(pol.tree))
"""


def test_flattened_solve_does_not_depend_on_blas_threads():
    # The flattened and the level-0 solve sum with numpy alone, so the BLAS
    # thread count, fixed when a process starts, cannot reorder their sums.
    src = str(Path(ididiv.__file__).resolve().parent.parent)
    outs = []
    for n in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=n, OPENBLAS_NUM_THREADS=n)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        outs.append(subprocess.run(
            [sys.executable, "-c", _THREADED_SOLVE], env=env, capture_output=True,
            text=True, timeout=300, check=True,
        ).stdout)
    assert outs[0] == outs[1]
    assert outs[0].startswith("39.70482")


class TestSparsePath:
    def test_tiger_model_has_one_operator_per_action(self, tiger2, cand2):
        model = flatten(tiger2, cand2).model
        assert isinstance(model.transition, tuple)
        assert len(model.transition) == len(model.actions)
        for op in model.transition:
            assert isinstance(op, FannedRows)
            assert op.joint is tiger2.transition
            assert op.shape == (18, 18)
            keys, vals = op.rmatvec(np.zeros(0, dtype=np.int64), np.zeros(0))
            assert len(keys) == 0 and vals.dtype == np.float64

    def test_sparse_matches_dense(self, tiger2, cand2):
        sp = flatten(tiger2, cand2)
        dense = _dense_reference((tiger2, cand2, sp))
        pd = solve_exact(dense)
        ps = solve_idid(sp)
        assert ps.value == pytest.approx(pd.value, abs=1e-12)
        assert ps.tree == pd.tree

    def test_products_match_scipy_exactly(self, oracle_sets):
        domain, candidates, _flat = oracle_sets["tiger-T2"]
        blocks = _csr_oracle(domain, candidates)
        assert all(blk.indices.dtype == np.int32 for blk in blocks)
        _assert_products_match_scipy(oracle_sets["tiger-T2"], np.random.default_rng(5))

    def test_uav_products_match_scipy_exactly(self, oracle_sets):
        _assert_products_match_scipy(
            oracle_sets["uav-T3-mdf6"], np.random.default_rng(6), n_random=5
        )

    def test_explicit_zeros_are_kept(self, tiger2, cand2):
        # Noiseless peer sensing makes half the observation-weighted
        # entries exactly zero; they stay counted in nnz.
        obs_j = np.zeros_like(tiger2.obs_fn_j)
        obs_j[0, :, 0] = 1.0  # first state: always the first growl
        obs_j[1, :, 1] = 1.0
        sharp = dataclasses.replace(tiger2, obs_fn_j=obs_j)
        flat = flatten(sharp, cand2)
        aj_index = {a: k for k, a in enumerate(sharp.actions_j)}
        n_oj = len(sharp.observations_j)
        oracle = _csr_oracle(sharp, cand2)
        for ai, (op, blk) in enumerate(zip(flat.model.transition, oracle)):
            expect = 0
            for tree in cand2.trees:
                level = node_table(n_oj, tree.depth).level
                for action, lvl in zip(tree.preorder, level):
                    nz = np.count_nonzero(sharp.transition[:, ai, aj_index[action], :])
                    expect += nz * (n_oj if lvl + 1 < tree.depth else 1)
            assert op.nnz == blk.nnz == expect
            assert np.count_nonzero(blk.data == 0.0) > 0

    # The tables flatten reads are checked when they are built, so a bad
    # one is refused under its own name, not the augmented transition's:
    # obs_fn_j by dataclasses.replace, the joint table by from_entries.
    def test_bad_peer_sensing_is_named(self, tiger2):
        obs_j = np.array(tiger2.obs_fn_j)
        obs_j[0, 2] = [0.9, 0.0575]
        with pytest.raises(DomainValidationError, match=r"obs_fn_j: row \(0, 2\) sums"):
            dataclasses.replace(tiger2, obs_fn_j=obs_j)

    def test_bad_joint_block_is_named(self, tiger2):
        entries = domain_to_obj(tiger2)["transition"]
        assert entries[27] == [1, 2, 0, 1, 0.5]
        entries[27][4] = 0.4
        message = r"transition\[:, 2, 0\]: row 1 sums to 0\.90000000000000002$"
        with pytest.raises(DomainValidationError, match=message):
            JointTransition.from_entries(entries, tiger2.transition.shape)

    @pytest.mark.parametrize("aj", [2, 1])
    def test_bad_subject_sensing_is_named(self, tiger2, cand2, aj):
        # cand2's peers play OpenRight (aj = 1) only at leaves, so the model
        # reads no obs_fn_i[:, :, 1] row; a bad one is refused all the same,
        # when the domain is built.
        n_oj = len(tiger2.observations_j)
        parents = {
            action
            for t in cand2.trees
            for action, lvl in zip(t.preorder, node_table(n_oj, t.depth).level)
            if lvl + 1 < t.depth
        }
        assert parents == {"Listen", "OpenLeft"}
        obs_i = np.array(tiger2.obs_fn_i)
        obs_i[0, 0, aj, 0] += 0.05
        with pytest.raises(DomainValidationError, match=r"obs_fn_i: row \(0, 0, %d\) sums" % aj):
            dataclasses.replace(tiger2, obs_fn_i=obs_i)

    def test_validate_model_checks_operator_count_and_shape(self, tiger2, cand2):
        model = flatten(tiger2, cand2).model
        other = flatten(tiger2, make_candidate_set(cand2.trees[:2], 2)).model
        ops = (model.transition[0], other.transition[1], model.transition[2])
        with pytest.raises(DomainValidationError, match=r"transition\[1\]: shape"):
            dataclasses.replace(model, transition=ops)
        with pytest.raises(DomainValidationError, match="2 operators, expected 3"):
            dataclasses.replace(model, transition=model.transition[:2])

    def test_custom_initial_physical_belief(self, tiger2, cand2):
        left = dataclasses.replace(tiger2, start=np.array([1.0, 0.0]))
        b = _dense(flatten(left, cand2).model.initial_belief, 18)
        assert b[0] == pytest.approx(0.5)  # prior 0.5 on candidate 0
        assert b[1] == 0.0
        with pytest.raises(ValueError, match="start"):
            flatten(dataclasses.replace(tiger2, start=np.array([0.9, 0.2])), cand2)
