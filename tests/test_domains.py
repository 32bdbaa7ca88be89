import dataclasses
import gc
import json
import pickle

import numpy as np
import pytest

from ididiv import domains
from ididiv import (
    DomainValidationError,
    JointTransition,
    PosgDomain,
    SingleAgentModel,
    SparseRows,
    builtin_domain,
    builtin_tiger,
    builtin_uav,
    load_domain,
    project_level0,
    serialize_domain,
    validate_domain,
    validate_model,
    with_horizon,
)
from ididiv.domains import domain_from_obj


def _sidx(domain, name):
    return domain.states.index(name)


class TestTiger:
    def test_validates(self, tiger):
        validate_domain(tiger)

    def test_shapes(self, tiger):
        assert tiger.states == ("TigerLeft", "TigerRight")
        assert tiger.actions_i == tiger.actions_j == ("OpenLeft", "OpenRight", "Listen")
        assert len(tiger.observations_i) == 6
        assert tiger.observations_j == ("GrowlLeft", "GrowlRight")

    def test_double_listen_keeps_state(self, tiger):
        a = tiger.actions_i.index("Listen")
        assert np.allclose(tiger.transition[:, a, a, :], np.eye(2))

    def test_any_open_relocates_uniformly(self, tiger):
        open_l = tiger.actions_i.index("OpenLeft")
        listen = tiger.actions_i.index("Listen")
        assert np.allclose(tiger.transition[:, open_l, listen, :], 0.5)
        assert np.allclose(tiger.transition[:, listen, open_l, :], 0.5)

    def test_rewards(self, tiger):
        sl = _sidx(tiger, "TigerLeft")
        sr = _sidx(tiger, "TigerRight")
        ol = tiger.actions_i.index("OpenLeft")
        li = tiger.actions_i.index("Listen")
        assert tiger.reward_i[sl, ol, li] == -100.0
        assert tiger.reward_i[sr, ol, li] == 10.0
        assert tiger.reward_i[sl, li, ol] == -1.0
        # Payoffs do not depend on the peer's action.
        assert np.all(tiger.reward_i == tiger.reward_i[:, :, :1])

    def test_growl_accuracy(self, tiger):
        sl = _sidx(tiger, "TigerLeft")
        li = tiger.actions_j.index("Listen")
        gl = tiger.observations_j.index("GrowlLeft")
        assert tiger.obs_fn_j[sl, li, gl] == 0.85

    def test_growl_uninformative_when_opening(self, tiger):
        ol = tiger.actions_j.index("OpenLeft")
        assert np.allclose(tiger.obs_fn_j[:, ol, :], 0.5)

    def test_subject_observation_factors(self, tiger):
        # growl 0.85 times creak 0.9 for the matching symbol
        sl = _sidx(tiger, "TigerLeft")
        li = tiger.actions_i.index("Listen")
        ol = tiger.actions_j.index("OpenLeft")
        glcl = tiger.observations_i.index("GrowlLeftCreakLeft")
        assert tiger.obs_fn_i[sl, li, ol, glcl] == pytest.approx(0.85 * 0.9, abs=1e-15)
        sil = tiger.observations_i.index("GrowlLeftSilence")
        assert tiger.obs_fn_i[sl, li, ol, sil] == pytest.approx(0.85 * 0.05, abs=1e-15)

    def test_start_uniform(self, tiger):
        assert np.allclose(tiger.start_distribution(), 0.5)


class TestTigerLevel0:
    def test_projection_shape(self, tiger_j):
        validate_model(tiger_j)
        assert len(tiger_j.states) == 2
        assert tiger_j.actions == ("OpenLeft", "OpenRight", "Listen")
        assert tiger_j.observations == ("GrowlLeft", "GrowlRight")

    def test_listen_marginal_mixes_uniform(self, tiger, tiger_j):
        # Peer opens with prob 2/3 under the uniform rule, relocating the
        # tiger; the listen row is 1/3 identity + 2/3 uniform.
        li = tiger_j.actions.index("Listen")
        expect = np.eye(2) / 3.0 + np.full((2, 2), 0.5) * (2.0 / 3.0)
        assert np.allclose(tiger_j.transition[:, li, :], expect, atol=1e-12)

    def test_reward_marginal_is_base(self, tiger_j):
        li = tiger_j.actions.index("Listen")
        ol = tiger_j.actions.index("OpenLeft")
        assert tiger_j.reward[:, li] == pytest.approx([-1.0, -1.0])
        assert tiger_j.reward[0, ol] == pytest.approx(-100.0, abs=1e-12)

    def test_bad_peer_rule(self, tiger):
        with pytest.raises(ValueError):
            project_level0(tiger, "x")

    def test_subject_projection(self, tiger):
        m = project_level0(tiger, "i")
        validate_model(m)
        assert m.observations == tiger.observations_i


class TestUav:
    def test_validates(self, uav):
        validate_domain(uav)
        assert len(uav.states) == 628
        assert uav.actions_i == ("N", "S", "E", "W", "Stay")
        assert len(uav.observations_i) == 4

    def test_start(self, uav):
        s = _sidx(uav, "X2Y2@X4Y4")
        assert uav.start_distribution()[s] == 1.0

    def test_escape_transition(self, uav):
        # Fugitive one step above the safe corner moves south, chaser far
        # away stays put: escape 0.9, miss 0.1.
        s = _sidx(uav, "X4Y4@X0Y1")
        stay = uav.actions_i.index("Stay")
        south = uav.actions_j.index("S")
        row = uav.transition[s, stay, south]
        assert row[_sidx(uav, "Escaped")] == pytest.approx(0.9)
        assert row[_sidx(uav, "X4Y4@X0Y1")] == pytest.approx(0.1)

    def test_capture_transition(self, uav):
        s = _sidx(uav, "X1Y0@X1Y1")
        stay = uav.actions_i.index("Stay")
        south = uav.actions_j.index("S")
        row = uav.transition[s, stay, south]
        assert row[_sidx(uav, "Captured")] == pytest.approx(0.9)
        assert row[_sidx(uav, "X1Y0@X1Y1")] == pytest.approx(0.1)

    def test_capture_beats_escape(self, uav):
        # Chaser camped on the safe cell grabs the arriving fugitive.
        s = _sidx(uav, "X0Y0@X1Y0")
        stay = uav.actions_i.index("Stay")
        west = uav.actions_j.index("W")
        row = uav.transition[s, stay, west]
        assert row[_sidx(uav, "Captured")] == pytest.approx(0.9)
        assert row[_sidx(uav, "Escaped")] == 0.0

    def test_walls_block(self, uav):
        s = _sidx(uav, "X0Y4@X4Y0")
        north = uav.actions_i.index("N")
        east = uav.actions_j.index("E")
        # Both push into walls: nobody moves.
        assert uav.transition[s, north, east, s] == pytest.approx(1.0)

    def test_flag_chain(self, uav):
        cap = _sidx(uav, "Captured")
        done = _sidx(uav, "Done")
        assert np.all(uav.transition[cap, :, :, done] == 1.0)
        assert np.all(uav.transition[done, :, :, done] == 1.0)
        assert np.all(uav.reward_i[cap] == 100.0)
        assert np.all(uav.reward_j[cap] == -100.0)
        assert np.all(uav.reward_i[_sidx(uav, "Escaped")] == -100.0)
        assert np.all(uav.reward_i[done] == 0.0)

    def test_step_cost(self, uav):
        s = _sidx(uav, "X2Y2@X4Y4")
        assert np.all(uav.reward_i[s] == -1.0)
        assert np.all(uav.reward_j[s] == -1.0)

    def test_chaser_observation_quadrant(self, uav):
        s = _sidx(uav, "X2Y2@X4Y4")  # fugitive to the north east
        ne = uav.observations_i.index("NE")
        assert np.all(uav.obs_fn_i[s, :, :, ne] == pytest.approx(0.8))
        sw = uav.observations_i.index("SW")
        assert np.all(uav.obs_fn_i[s, :, :, sw] == pytest.approx(0.2 / 3))

    def test_quadrant_tie_convention(self, uav):
        # dx = 0 counts as east, dy < 0 as south.
        s = _sidx(uav, "X2Y2@X2Y0")
        se = uav.observations_i.index("SE")
        assert np.all(uav.obs_fn_i[s, :, :, se] == pytest.approx(0.8))

    def test_fugitive_observes_safe_house(self, uav):
        s = _sidx(uav, "X4Y4@X3Y3")  # safe house south west of the fugitive
        sw = uav.observations_j.index("SW")
        assert np.all(uav.obs_fn_j[s, :, sw] == pytest.approx(0.8))

    def test_terminal_observations_uniform(self, uav):
        cap = _sidx(uav, "Captured")
        assert np.all(uav.obs_fn_i[cap] == 0.25)
        assert np.all(uav.obs_fn_j[cap] == 0.25)


class TestUavLevel0:
    def test_prebuilt_view(self, uav):
        m = project_level0(uav, "j")
        validate_model(m)
        assert len(m.states) == 25
        assert m.observations == uav.observations_j
        assert m.horizon == uav.horizon

    def test_start_at_far_corner(self, uav):
        m = project_level0(uav, "j")
        assert m.initial_belief[m.states.index("X4Y4")] == 1.0

    def test_arrival_reward(self, uav):
        m = project_level0(uav, "j")
        c = m.states.index("X1Y0")
        w = m.actions.index("W")
        n = m.actions.index("N")
        assert m.reward[c, w] == pytest.approx(-1.0 + 100.0 * 0.9)
        assert m.reward[c, n] == pytest.approx(-1.0)

    def test_safe_cell_absorbing(self, uav):
        m = project_level0(uav, "j")
        c = m.states.index("X0Y0")
        assert np.all(m.transition[c, :, c] == 1.0)
        assert np.all(m.reward[c] == 0.0)

    def test_with_horizon_propagates(self, uav):
        d4 = with_horizon(uav, 4)
        assert d4.horizon == 4
        assert project_level0(d4, "j").horizon == 4


class TestProjectionByBlocks:
    """project_level0 sums blocks; the dense einsum over the joint table is the oracle."""

    @pytest.mark.parametrize("agent", ["i", "j"])
    @pytest.mark.parametrize("name", ["tiger", "uav"])
    def test_equals_dense_einsum(self, name, agent):
        domain = dataclasses.replace(builtin_domain(name, 3), level0={})
        joint = np.asarray(domain.transition)
        n_peer = len(domain.actions_j if agent == "i" else domain.actions_i)
        w = np.full(n_peer, 1.0 / n_peer)
        spec = "w,sawt->sat" if agent == "i" else "a,sawt->swt"
        expect = np.einsum(spec, w, joint)
        assert np.array_equal(project_level0(domain, agent).transition, expect)


class TestValidation:
    def test_bad_row_sum(self, tiger):
        broken = np.array(tiger.transition)
        broken[0, 0, 0, 0] += 1e-6
        with pytest.raises(DomainValidationError, match="transition"):
            validate_domain(dataclasses.replace(tiger, transition=broken))

    def test_bad_row_names_its_block(self, tiger):
        broken = np.array(tiger.transition)
        broken[1, 2, 0, :] = [0.7, 0.4]
        with pytest.raises(DomainValidationError, match=r"transition\[:, 2, 0\]: row 1 sums"):
            validate_domain(dataclasses.replace(tiger, transition=broken))

    def test_negative_probability(self, tiger_j):
        obs = np.array(tiger_j.obs_fn)
        obs[0, 0, 0] = -0.1
        obs[0, 0, 1] = 1.1
        with pytest.raises(DomainValidationError):
            validate_model(tiger_j.replace(obs_fn=obs))

    def test_duplicate_labels(self, tiger_j):
        with pytest.raises(DomainValidationError, match="duplicate"):
            validate_model(tiger_j.replace(states=("x", "x")))

    def test_reserved_chars_in_labels(self, tiger_j):
        with pytest.raises(DomainValidationError):
            validate_model(tiger_j.replace(states=("a|b", "c")))

    def test_shape_mismatch(self, tiger_j):
        with pytest.raises(DomainValidationError, match="reward"):
            validate_model(tiger_j.replace(reward=np.zeros((2, 2))))

    def test_bad_horizon(self, tiger_j):
        with pytest.raises(DomainValidationError, match="horizon"):
            validate_model(tiger_j.replace(horizon=0))

    def test_non_finite_reward(self, tiger_j):
        r = np.array(tiger_j.reward)
        r[0, 0] = np.nan
        with pytest.raises(DomainValidationError):
            validate_model(tiger_j.replace(reward=r))


def _nan_at(arr, index) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out[index] = np.nan
    return out


class TestNonFinite:
    """A NaN row passes a sign test and a sum test alike, so it is named."""

    @pytest.mark.parametrize("form", ["dense", "compact"])
    def test_domain_transition(self, tiger, form):
        if form == "dense":
            table = _nan_at(tiger.transition, (0, 1, 2))
        else:
            rows = tiger.transition.rows
            rows = dataclasses.replace(rows, data=_nan_at(rows.data, slice(0, 2)))
            table = JointTransition(rows, tiger.transition.shape)
        with pytest.raises(DomainValidationError, match=r"transition\[:, \d, \d\]: non-finite"):
            validate_domain(dataclasses.replace(tiger, transition=table))

    def test_obs_fn_i(self, tiger):
        broken = dataclasses.replace(tiger, obs_fn_i=_nan_at(tiger.obs_fn_i, (1, 0, 2)))
        with pytest.raises(DomainValidationError, match="obs_fn_i: non-finite"):
            validate_domain(broken)

    @pytest.mark.parametrize("form", ["dense", "sparse"])
    def test_level0_transition(self, tiger_j, form):
        table = _nan_at(tiger_j.transition, (0, 1))
        if form == "sparse":
            table = tuple(_rows_of(table[:, a, :]) for a in range(3))
        match = r"transition: non-finite" if form == "dense" else r"transition\[1\]: non-finite"
        with pytest.raises(DomainValidationError, match=match):
            validate_model(tiger_j.replace(transition=table))

    def test_initial_belief(self, tiger_j):
        broken = tiger_j.replace(initial_belief=np.array([np.nan, np.nan]))
        with pytest.raises(DomainValidationError, match="initial_belief: non-finite"):
            validate_model(broken)


def _rows_of(dense: np.ndarray) -> SparseRows:
    """Every entry of a dense [S, S] block, zeros included, in CSR form."""
    S = dense.shape[0]
    return SparseRows(
        indptr=np.arange(0, S * S + 1, S),
        indices=np.tile(np.arange(S, dtype=np.int32), S),
        data=dense.ravel(),
        shape=(S, S),
    )


class TestSparseRows:
    """Hand-built sparse transitions: tiger_j's blocks, one of them broken."""

    def _with_block1(self, tiger_j, **change):
        blocks = [_rows_of(tiger_j.transition[:, a, :]) for a in range(3)]
        blocks[1] = dataclasses.replace(blocks[1], **change)
        return tiger_j.replace(transition=tuple(blocks))

    def test_hand_built_model_validates_and_predicts(self, tiger_j):
        m = self._with_block1(tiger_j)
        validate_model(m)
        assert m.is_sparse and m.transition[0].nnz == 4
        b = np.array([0.25, 0.75])
        for a in range(3):
            np.testing.assert_allclose(
                b @ m.transition_matrix(a), b @ tiger_j.transition_matrix(a), atol=1e-15
            )
        assert np.array_equal(np.array([0.0, 0.0]) @ m.transition[0], np.zeros(2))

    @pytest.mark.parametrize(
        "change",
        [
            {"indptr": np.array([0, 2])},
            {"indptr": np.array([1, 2, 4])},
            {"indptr": np.array([0, 2, 3])},
            {"indptr": np.array([0, 3, 2])},
            {"indptr": np.array([0.0, 2.0, 4.0])},
            {"indices": np.array([0, 1, 0, 2], dtype=np.int32)},
            {"indices": np.array([0, -1, 0, 1], dtype=np.int32)},
            {"data": np.array([1.0, 0.0, 0.0, 1.0, 0.0])},
        ],
        ids=[
            "indptr-length",
            "indptr-start",
            "indptr-end",
            "indptr-decreasing",
            "indptr-float",
            "index-too-large",
            "index-negative",
            "data-length",
        ],
    )
    def test_malformed_structure(self, tiger_j, change):
        with pytest.raises(DomainValidationError, match=r"transition\[1\]"):
            validate_model(self._with_block1(tiger_j, **change))

    def test_row_sum_and_sign(self, tiger_j):
        with pytest.raises(DomainValidationError, match=r"transition\[1\]: row 0"):
            validate_model(self._with_block1(tiger_j, data=np.array([0.5, 0.4, 0.0, 1.0])))
        with pytest.raises(DomainValidationError, match=r"transition\[1\]: negative"):
            validate_model(self._with_block1(tiger_j, data=np.array([1.5, -0.5, 0.0, 1.0])))

    def test_shape_and_type(self, tiger_j):
        with pytest.raises(DomainValidationError, match=r"transition\[1\]: shape"):
            validate_model(self._with_block1(tiger_j, shape=(2, 3)))
        blocks = [_rows_of(tiger_j.transition[:, a, :]) for a in range(3)]
        blocks[1] = tiger_j.transition[:, 1, :]
        with pytest.raises(DomainValidationError, match=r"transition\[1\]: ndarray"):
            validate_model(tiger_j.replace(transition=tuple(blocks)))


def _dense_uav_transition() -> np.ndarray:
    """The uav joint transition built densely, one += per move outcome."""
    n, A = domains._GRID ** 2, len(domains._UAV_MOVES)
    CAP, ESC, DONE = n * n, n * n + 1, n * n + 2
    S = n * n + 3
    tgt = np.array([[domains._move_target(c, a) for a in range(A)] for c in range(n)])
    T = np.zeros((S, A, A, S))
    T[[CAP, ESC, DONE], :, :, DONE] = 1.0
    pair = np.arange(n * n)
    ci, cj = pair // n, pair % n
    for ai in range(A):
        for aj in range(A):
            for nci, wi in ((tgt[ci, ai], 0.9), (ci, 0.1)):
                for ncj, wj in ((tgt[cj, aj], 0.9), (cj, 0.1)):
                    dest = np.where(
                        nci == ncj, CAP, np.where(ncj == domains._SAFE, ESC, nci * n + ncj)
                    )
                    np.add.at(T, (pair, ai, aj, dest), wi * wj)
    return T


class TestJointTransition:
    def test_uav_matches_dense_build(self, uav):
        dense = _dense_uav_transition()
        assert np.array_equal(np.asarray(uav.transition), dense)
        assert uav.transition == JointTransition.from_dense(dense)
        assert uav.transition.shape == dense.shape
        assert uav.transition.nbytes < dense.nbytes / 100

    def test_blocks_hold_the_nonzeros_in_row_order(self, uav):
        dense = np.asarray(uav.transition)
        for ai, aj in ((0, 0), (2, 4), (4, 1)):
            blk = uav.transition.block(ai, aj)
            r, c = np.nonzero(dense[:, ai, aj, :])
            assert np.array_equal(np.repeat(np.arange(blk.shape[0]), np.diff(blk.indptr)), r)
            assert np.array_equal(blk.indices, c)
            assert np.array_equal(blk.data, dense[r, ai, aj, c])
        with pytest.raises(IndexError):
            uav.transition.block(5, 0)

    @pytest.mark.parametrize(
        "key",
        [
            (slice(None), 1, 2, slice(None)),
            (17, 3, 0),
            (17, 3, 0, 42),
            (-1, -2, 4, -1),
            (Ellipsis, 5),
            (slice(600, None, 7), slice(None, None, -2), 1),
            (Ellipsis, 1, slice(1, 4), slice(620, 628)),
            (3,),
            Ellipsis,
        ],
    )
    def test_basic_indexing_matches_dense(self, uav, key):
        got, want = uav.transition[key], np.asarray(uav.transition)[key]
        assert np.shape(got) == np.shape(want) and np.array_equal(got, want)
        if isinstance(got, np.ndarray):
            assert not got.flags.writeable

    @pytest.mark.parametrize(
        "key", [(628,), (0, 5), (True,), (np.array([0, 1]),), (0, 0, 0, 0, 0), (..., ...)]
    )
    def test_bad_index(self, uav, key):
        with pytest.raises(IndexError):
            uav.transition[key]

    def test_equality_by_value(self, tiger, uav):
        again = JointTransition.from_dense(np.asarray(tiger.transition))
        assert again == tiger.transition and again is not tiger.transition
        assert tiger.transition != uav.transition
        assert tiger.transition != np.asarray(tiger.transition)

    def test_pickle_keeps_it_read_only(self, uav):
        back = pickle.loads(pickle.dumps(uav.transition))
        assert back == uav.transition
        for arr in (back.rows.indptr, back.rows.indices, back.rows.data):
            assert not arr.flags.writeable

    def test_flat_shape_rejected(self, tiger):
        with pytest.raises(DomainValidationError, match="transition: shape"):
            dataclasses.replace(tiger, transition=np.ones((2, 2)))


class TestSerialization:
    def test_roundtrip_canonical(self, tiger):
        text = serialize_domain(tiger)
        again = serialize_domain(domain_from_obj(json.loads(text)))
        assert text == again

    def test_roundtrip_values(self, tiger):
        d = domain_from_obj(json.loads(serialize_domain(tiger)))
        assert d.name == tiger.name
        assert d.states == tiger.states
        assert np.array_equal(d.transition, tiger.transition)
        assert np.array_equal(d.start, tiger.start)

    def test_load_from_file(self, tiger, tmp_path):
        p = tmp_path / "tiger.json"
        p.write_text(serialize_domain(tiger))
        d = load_domain(p)
        assert d.horizon == tiger.horizon

    def test_missing_key(self):
        with pytest.raises(DomainValidationError, match="missing"):
            domain_from_obj({"name": "x"})

    def test_builtin_lookup(self):
        assert builtin_domain("tiger", 2).horizon == 2
        with pytest.raises(KeyError):
            builtin_domain("chess")


def _fields_equal(a, b) -> bool:
    """Dataclass field values equal, arrays by value; recurses into level0."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "level0":
            if x.keys() != y.keys() or not all(_fields_equal(x[k], y[k]) for k in x):
                return False
        elif isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


class TestSharedBuiltins:
    def test_one_object_while_held(self):
        d = builtin_uav(3)
        assert d is builtin_domain("uav", 3) is builtin_domain("uav")
        assert builtin_tiger() is builtin_domain("tiger", 3)

    def test_horizons_are_distinct(self):
        d2, d3 = builtin_tiger(2), builtin_tiger(3)
        assert d2 is not d3
        assert (d2.horizon, d3.horizon) == (2, 3)

    def test_rebuilt_after_release(self, tiger_builds):
        d = builtin_tiger(2)
        assert builtin_tiger(2) is d and tiger_builds == [2]
        del d
        gc.collect()
        fresh = builtin_tiger(2)
        assert tiger_builds == [2, 2]
        assert _fields_equal(fresh, domains._build_tiger(2))


class TestReadOnly:
    def test_level0_rejects_writes(self, uav):
        with pytest.raises(TypeError):
            uav.level0["j"] = project_level0(uav, "j")
        with pytest.raises(TypeError):
            del uav.level0["j"]
        with pytest.raises(ValueError):
            uav.transition[0, 0, 0, 0] = 0.5

    def test_pickle_roundtrip(self, uav):
        back = pickle.loads(pickle.dumps(uav))
        assert back is not uav
        assert _fields_equal(back, uav)
        with pytest.raises(TypeError):
            back.level0["i"] = back.level0["j"]

    def test_with_horizon_unchanged(self, uav, tiger):
        d4 = with_horizon(uav, 4)
        assert _fields_equal(d4, domains._build_uav(4))
        assert d4.transition is uav.transition
        assert d4.level0["j"].transition is uav.level0["j"].transition
        assert _fields_equal(with_horizon(tiger, 2), domains._build_tiger(2))

    def test_project_level0_unchanged(self, uav, tiger):
        assert _fields_equal(project_level0(uav, "j"), domains._uav_level0_fugitive(3))
        d4 = with_horizon(uav, 4)
        assert _fields_equal(project_level0(d4, "j"), domains._uav_level0_fugitive(4))
        # No prebuilt view for tiger: j's view marginalizes i's action.
        j = project_level0(tiger, "j")
        w = np.full(3, 1.0 / 3.0)
        assert np.array_equal(j.transition, np.einsum("a,sawt->swt", w, tiger.transition))
        assert np.array_equal(j.reward, np.einsum("swa,a->sw", tiger.reward_j, w))
