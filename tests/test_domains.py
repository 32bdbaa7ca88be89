import dataclasses
import gc
import hashlib
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
    builtin_domain,
    load_domain,
    project_level0,
    serialize_domain,
)
from ididiv.domains import domain_from_obj, domain_to_obj


def _sidx(domain, name):
    return domain.states.index(name)


def _dense(T: JointTransition) -> np.ndarray:
    """The [S, Ai, Aj, S'] array, stacked from the ``[:, ai, aj, :]`` blocks."""
    _, Ai, Aj, _ = T.shape
    return np.stack(
        [np.stack([T[:, ai, aj, :] for aj in range(Aj)], axis=1) for ai in range(Ai)], axis=1
    )


def _with_entries(domain, edit) -> PosgDomain:
    """``domain`` with the transition rebuilt from its entries after ``edit(entries)``."""
    entries = domain_to_obj(domain)["transition"]
    edit(entries)
    T = JointTransition.from_entries(entries, domain.transition.shape)
    return dataclasses.replace(domain, transition=T)


def _set_p(s, ai, aj, s2, p):
    """An edit setting p of the stored entry (s, ai, aj, s')."""

    def edit(entries):
        (e,) = [e for e in entries if e[:4] == [s, ai, aj, s2]]
        e[4] = p

    return edit


class TestTiger:
    def test_validates(self, tiger):
        # Built through the check; a rebuild passes it again.
        assert dataclasses.replace(tiger).states == tiger.states

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
        assert np.allclose(tiger.start, 0.5)


class TestTigerLevel0:
    def test_projection_shape(self, tiger_j):
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
        assert m.observations == tiger.observations_i


class TestUav:
    def test_validates(self, uav):
        assert len(uav.states) == 628
        assert uav.actions_i == ("N", "S", "E", "W", "Stay")
        assert len(uav.observations_i) == 4

    def test_start(self, uav):
        s = _sidx(uav, "X2Y2@X4Y4")
        assert uav.start[s] == 1.0

    def test_escape_transition(self, uav):
        # Fugitive one step above the safe corner moves south, chaser far
        # away stays put: escape 0.9, miss 0.1.
        s = _sidx(uav, "X4Y4@X0Y1")
        stay = uav.actions_i.index("Stay")
        south = uav.actions_j.index("S")
        row = uav.transition[:, stay, south, :][s]
        assert row[_sidx(uav, "Escaped")] == pytest.approx(0.9)
        assert row[_sidx(uav, "X4Y4@X0Y1")] == pytest.approx(0.1)

    def test_capture_transition(self, uav):
        s = _sidx(uav, "X1Y0@X1Y1")
        stay = uav.actions_i.index("Stay")
        south = uav.actions_j.index("S")
        row = uav.transition[:, stay, south, :][s]
        assert row[_sidx(uav, "Captured")] == pytest.approx(0.9)
        assert row[_sidx(uav, "X1Y0@X1Y1")] == pytest.approx(0.1)

    def test_capture_beats_escape(self, uav):
        # Chaser camped on the safe cell grabs the arriving fugitive.
        s = _sidx(uav, "X0Y0@X1Y0")
        stay = uav.actions_i.index("Stay")
        west = uav.actions_j.index("W")
        row = uav.transition[:, stay, west, :][s]
        assert row[_sidx(uav, "Captured")] == pytest.approx(0.9)
        assert row[_sidx(uav, "Escaped")] == 0.0

    def test_walls_block(self, uav):
        s = _sidx(uav, "X0Y4@X4Y0")
        north = uav.actions_i.index("N")
        east = uav.actions_j.index("E")
        # Both push into walls: nobody moves.
        assert uav.transition[:, north, east, :][s, s] == pytest.approx(1.0)

    def test_flag_chain(self, uav):
        cap = _sidx(uav, "Captured")
        done = _sidx(uav, "Done")
        for ai in range(5):
            for aj in range(5):
                block = uav.transition[:, ai, aj, :]
                assert block[cap, done] == 1.0 and block[done, done] == 1.0
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

        def row(labels, dx, dy):
            # The quadrant of (dx, dy) at 0.8, ties north and east.
            out = np.full(4, 0.2 / 3)
            out[labels.index(("N" if dy >= 0 else "S") + ("E" if dx >= 0 else "W"))] = 0.8
            return out

        # The chaser sees the fugitive's quadrant, the fugitive the safe
        # house's (X0Y0), at every cell pair and action pair.
        for s, name in enumerate(uav.states[:-3]):  # the cell pairs, not the flags
            (xi, yi), (xj, yj) = [(int(c[1]), int(c[3])) for c in name.split("@")]
            assert np.all(uav.obs_fn_i[s] == row(uav.observations_i, xj - xi, yj - yi))
            assert np.all(uav.obs_fn_j[s] == row(uav.observations_j, -xj, -yj))

    def test_fugitive_observes_safe_house(self, uav):
        s = _sidx(uav, "X4Y4@X3Y3")  # safe house south west of the fugitive
        sw = uav.observations_j.index("SW")
        assert np.all(uav.obs_fn_j[s, :, sw] == pytest.approx(0.8))

    def test_terminal_observations_uniform(self, uav):
        cap = _sidx(uav, "Captured")
        assert np.all(uav.obs_fn_i[cap] == 0.25)
        assert np.all(uav.obs_fn_j[cap] == 0.25)

    def test_transition_table_is_pinned(self, uav):
        # The table's bytes as built by one np.unique over every action pair
        # at once; reducing pair by pair must sum the same weights in the
        # same order.
        T = uav.transition
        assert (T.indptr.dtype, T.indices.dtype, T.data.dtype) == (np.int64, np.int32, np.float64)
        assert T.nnz == 41408
        digest = hashlib.sha256()
        for arr in (T.indptr, T.indices, T.data):
            digest.update(arr.tobytes())
        assert digest.hexdigest() == (
            "31bb6189ea432e7594c060abc92e4da0cbbf59a6a7925d478df9b6e29ab22a18"
        )


class TestUavLevel0:
    def test_prebuilt_view(self, uav):
        m = project_level0(uav, "j")
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

    @pytest.mark.parametrize("horizon", [2, 3, 4])
    def test_equals_cell_by_cell_reference(self, horizon):
        m, ref = project_level0(builtin_domain("uav", horizon), "j"), _fugitive_reference(horizon)
        assert _fields_equal(m, ref)
        for name in ("transition", "reward", "obs_fn", "initial_belief"):
            assert getattr(m, name).tobytes() == getattr(ref, name).tobytes(), name

    def test_with_horizon_propagates(self, uav):
        d4 = dataclasses.replace(uav, horizon=4)
        assert d4.horizon == 4
        assert d4.level0["j"].horizon == 4
        assert project_level0(d4, "j") is d4.level0["j"]


class TestProjectionByBlocks:
    """project_level0 sums blocks; the dense einsum over the joint table is the oracle."""

    @pytest.mark.parametrize("agent", ["i", "j"])
    @pytest.mark.parametrize("name", ["tiger", "uav"])
    def test_equals_dense_einsum(self, name, agent):
        domain = dataclasses.replace(builtin_domain(name, 3), level0={})
        joint = _dense(domain.transition)
        n_peer = len(domain.actions_j if agent == "i" else domain.actions_i)
        w = np.full(n_peer, 1.0 / n_peer)
        spec = "w,sawt->sat" if agent == "i" else "a,sawt->swt"
        expect = np.einsum(spec, w, joint)
        assert np.array_equal(project_level0(domain, agent).transition, expect)

    @pytest.mark.parametrize("agent", ["i", "j"])
    @pytest.mark.parametrize("name", ["tiger", "uav"])
    def test_views_project_as_dense_copies(self, name, agent):
        # The uav state-only tables are per-state views; the projection sums
        # over a fresh product, so it reads them as it reads dense copies.
        domain = dataclasses.replace(builtin_domain(name, 3), level0={})
        tables = ("obs_fn_i", "obs_fn_j", "reward_i", "reward_j")
        dense = dataclasses.replace(domain, **{t: np.array(getattr(domain, t)) for t in tables})
        assert name == "tiger" or 0 in domain.obs_fn_i.strides
        got, want = project_level0(domain, agent), project_level0(dense, agent)
        for table in ("transition", "obs_fn", "reward"):
            assert getattr(got, table).tobytes() == getattr(want, table).tobytes()


class TestValidation:
    # A domain is checked when it is built: dataclasses.replace refuses a
    # bad table as the constructor does.
    def test_bad_row_sum(self, tiger):
        with pytest.raises(DomainValidationError, match="transition"):
            _with_entries(tiger, _set_p(0, 0, 0, 0, 0.5 + 1e-6))

    def test_bad_row_names_its_block(self, tiger):
        def edit(entries):
            _set_p(1, 2, 0, 0, 0.7)(entries)
            _set_p(1, 2, 0, 1, 0.4)(entries)

        with pytest.raises(DomainValidationError, match=r"transition\[:, 2, 0\]: row 1 sums"):
            _with_entries(tiger, edit)

    def test_row_with_no_stored_entry(self, tiger):
        # Listen/Listen keeps state 0 with p=1; at p=0 from_entries drops the
        # entry, so row 0 of that block stores nothing and sums to 0.
        message = r"transition\[:, 2, 2\]: row 0 sums to 0$"
        with pytest.raises(DomainValidationError, match=message):
            _with_entries(tiger, _set_p(0, 2, 2, 0, 0.0))

    def test_row_sum_reported_in_storage_order(self, uav):
        # A three-entry row set to 0.1, 0.2, 0.3 sums to 0.60000000000000009
        # one entry at a time, and to 0.59999999999999998 as 0.1 + (0.2 + 0.3).
        S, _, Aj, _ = uav.transition.shape
        r = int(np.flatnonzero(np.diff(uav.transition.indptr) == 3)[0])
        (ai, aj), s = divmod(r // S, Aj), r % S

        def edit(entries):
            row = sorted((e for e in entries if e[:3] == [s, ai, aj]), key=lambda e: e[3])
            for e, p in zip(row, (0.1, 0.2, 0.3)):
                e[4] = p

        message = r"transition\[:, %d, %d\]: row %d sums to 0.60000000000000009$" % (ai, aj, s)
        with pytest.raises(DomainValidationError, match=message):
            _with_entries(uav, edit)

    def test_constructor_refuses_a_bad_row(self):
        # Refused where the table is built, before any domain holds it.
        entries = [[0, 0, 0, 0, 0.5], [0, 0, 0, 1, 0.4], [1, 0, 0, 1, 1.0]]
        with pytest.raises(DomainValidationError, match=r"transition\[:, 0, 0\]: row 0 sums"):
            JointTransition.from_entries(entries, (2, 1, 1, 2))

    @pytest.mark.parametrize("field", ["actions", "observations"])
    def test_level0_view_over_other_labels(self, field):
        # Refused when built, not when a tree over the view's labels is
        # first flattened.
        tiger = builtin_domain("tiger", 2)
        view = project_level0(tiger, "j")
        assert dataclasses.replace(tiger, level0={"j": view}).level0["j"] is view
        # As many labels as the view's, so its own shape check passes and
        # the domain's alphabet rule is what refuses it.
        labels = tuple(x + "C" for x in getattr(view, field))
        with pytest.raises(DomainValidationError, match=r"level0: agent j's view") as err:
            dataclasses.replace(tiger, level0={"j": dataclasses.replace(view, **{field: labels})})
        assert repr(labels) in str(err.value)
        assert repr((tiger.actions_j, tiger.observations_j)) in str(err.value)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"horizon": 2.5}, "horizon: 2.5 is not an integer$"),
            ({"initial_belief": [0.7, 0.7]}, r"initial_belief: row \(\) sums to 1.3999"),
            ({"states": ("a", "a")}, r"states: duplicate labels in \('a', 'a'\)$"),
            ({"observations": "AB"}, "observations: 'AB' is not a list$"),
        ],
        ids=["horizon-float", "belief-sum", "states-repeated", "observations-string"],
    )
    def test_level0_view_refused_when_built(self, change, message):
        # Each used to build, and to solve or generate known models.
        j = project_level0(builtin_domain("tiger", 3), "j")
        with pytest.raises(DomainValidationError, match=message):
            dataclasses.replace(j, **change)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"actions_j": ("OpenLeft", 3, "Listen")}, "actions_j: label 3 is not a string$"),
            ({"observations_j": "AB"}, "observations_j: 'AB' is not a list$"),
        ],
        ids=["label-number", "labels-string"],
    )
    def test_label_list_refused_when_built(self, change, message):
        with pytest.raises(DomainValidationError, match=message):
            dataclasses.replace(builtin_domain("tiger", 2), **change)

    def test_label_lists_are_stored_as_tuples(self):
        tiger = builtin_domain("tiger", 2)
        d = dataclasses.replace(tiger, states=["TigerLeft", "TigerRight"])
        assert type(d.states) is tuple and d.states == tiger.states
        j = dataclasses.replace(project_level0(tiger, "j"), actions=list(tiger.actions_j))
        assert type(j.actions) is tuple and j.actions == tiger.actions_j

    def test_negative_probability(self, tiger_j):
        obs = np.array(tiger_j.obs_fn)
        obs[0, 0, 0] = -0.1
        obs[0, 0, 1] = 1.1
        with pytest.raises(DomainValidationError):
            dataclasses.replace(tiger_j, obs_fn=obs)

    def test_duplicate_labels(self, tiger_j):
        with pytest.raises(DomainValidationError, match="duplicate"):
            dataclasses.replace(tiger_j, states=("x", "x"))

    def test_reserved_chars_in_labels(self, tiger_j):
        with pytest.raises(DomainValidationError):
            dataclasses.replace(tiger_j, states=("a|b", "c"))

    def test_shape_mismatch(self, tiger_j):
        with pytest.raises(DomainValidationError, match="reward"):
            dataclasses.replace(tiger_j, reward=np.zeros((2, 2)))

    def test_bad_horizon(self, tiger_j):
        with pytest.raises(DomainValidationError, match="horizon"):
            dataclasses.replace(tiger_j, horizon=0)

    def test_non_finite_reward(self, tiger_j):
        r = np.array(tiger_j.reward)
        r[0, 0] = np.nan
        with pytest.raises(DomainValidationError):
            dataclasses.replace(tiger_j, reward=r)


class TestTreeSizeRule:
    """A horizon whose complete trees exceed MAX_TREE_NODES is refused."""

    @pytest.mark.parametrize(
        "name, horizon, agent, nodes",
        [("tiger", 6, "i", 9331), ("uav", 7, "i", 5461)],
    )
    def test_first_refused_horizon_gives_its_count(self, name, horizon, agent, nodes):
        assert nodes > domains.MAX_TREE_NODES
        with pytest.raises(
            DomainValidationError,
            match="horizon: %d gives agent %s complete policy trees of %d nodes"
            % (horizon, agent, nodes),
        ):
            builtin_domain(name, horizon)

    @pytest.mark.parametrize("name, horizon", [("tiger", 5), ("uav", 6)])
    def test_last_accepted_horizon_builds(self, name, horizon):
        assert builtin_domain(name, horizon).horizon == horizon

    @pytest.mark.parametrize("horizon", [40, 10**30])
    def test_huge_horizon_refused_at_once(self, tiger, horizon):
        with pytest.raises(
            DomainValidationError,
            match="horizon: %d gives agent i complete policy trees of at least" % horizon,
        ):
            dataclasses.replace(tiger, horizon=horizon)

    def test_one_observation_counts_the_depth(self, tiger):
        # With one observation a tree has one node per level.
        one = dataclasses.replace(
            tiger,
            observations_i=("Growl",),
            observations_j=("Growl",),
            obs_fn_i=np.ones((2, 3, 3, 1)),
            obs_fn_j=np.ones((2, 3, 1)),
        )
        limit = domains.MAX_TREE_NODES
        assert dataclasses.replace(one, horizon=limit).horizon == limit
        with pytest.raises(DomainValidationError, match="of %d nodes" % (limit + 1)):
            dataclasses.replace(one, horizon=limit + 1)
        with pytest.raises(DomainValidationError, match="of at least %d nodes" % (limit + 1)):
            dataclasses.replace(one, horizon=10**30)


def _nan_at(arr, index) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out[index] = np.nan
    return out


class TestNonFinite:
    """A NaN row passes a sign test and a sum test alike, so it is named."""

    @pytest.mark.parametrize("form", ["entries", "compact"])
    def test_domain_transition(self, tiger, form):
        with pytest.raises(DomainValidationError, match=r"transition\[:, \d, \d\]: non-finite"):
            if form == "entries":
                _with_entries(tiger, _set_p(0, 1, 2, 0, np.nan))
            else:
                T = tiger.transition
                T = dataclasses.replace(T, data=_nan_at(T.data, slice(0, 2)))
                dataclasses.replace(tiger, transition=T)

    def test_obs_fn_i(self, tiger):
        with pytest.raises(DomainValidationError, match="obs_fn_i: non-finite"):
            dataclasses.replace(tiger, obs_fn_i=_nan_at(tiger.obs_fn_i, (1, 0, 2)))

    @pytest.mark.parametrize("form", ["dense"])
    def test_level0_transition(self, tiger_j, form):
        table = _nan_at(tiger_j.transition, (0, 1))
        with pytest.raises(DomainValidationError, match=r"transition: non-finite"):
            dataclasses.replace(tiger_j, transition=table)

    def test_initial_belief(self, tiger_j):
        with pytest.raises(DomainValidationError, match="initial_belief: non-finite"):
            dataclasses.replace(tiger_j, initial_belief=np.array([np.nan, np.nan]))


def _rows_of(dense: np.ndarray) -> JointTransition:
    """The one-pair [S, 1, 1, S] table holding every entry of a dense [S, S]
    block, zeros included."""
    S = dense.shape[0]
    return JointTransition(
        indptr=np.arange(0, S * S + 1, S),
        indices=np.tile(np.arange(S, dtype=np.int32), S),
        data=dense.ravel(),
        shape=(S, 1, 1, S),
    )


def _one_pair(T) -> PosgDomain:
    """A two-state domain with one action per agent, moved by ``T``."""
    return PosgDomain(
        name="pair",
        states=("s0", "s1"),
        actions_i=("a",),
        actions_j=("b",),
        observations_i=("z",),
        observations_j=("z",),
        transition=T,
        obs_fn_i=np.ones((2, 1, 1, 1)),
        obs_fn_j=np.ones((2, 1, 1)),
        reward_i=np.zeros((2, 1, 1)),
        reward_j=np.zeros((2, 1, 1)),
        horizon=1,
    )


class TestSparseRows:
    """Hand-built joint transitions: tiger_j's OpenRight block as the one
    action pair of a domain, broken in one way each.  The domain refuses
    a broken table when it is built."""

    def _with_block1(self, tiger_j, **change):
        return _one_pair(dataclasses.replace(_rows_of(tiger_j.transition[:, 1, :]), **change))

    def test_hand_built_model_validates_and_predicts(self, tiger_j):
        d = self._with_block1(tiger_j)
        assert d.transition.nnz == 4
        b = np.array([0.25, 0.75])
        np.testing.assert_allclose(
            b @ d.transition[:, 0, 0, :], b @ tiger_j.transition[:, 1, :], atol=1e-15
        )

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
        with pytest.raises(DomainValidationError, match=r"transition: (indptr|column|\d+ data)"):
            self._with_block1(tiger_j, **change)

    def test_row_sum_and_sign(self, tiger_j):
        with pytest.raises(DomainValidationError, match=r"transition\[:, 0, 0\]: row 0"):
            self._with_block1(tiger_j, data=np.array([0.5, 0.4, 0.0, 1.0]))
        with pytest.raises(DomainValidationError, match=r"transition\[:, 0, 0\]: negative"):
            self._with_block1(tiger_j, data=np.array([1.5, -0.5, 0.0, 1.0]))

    @pytest.mark.parametrize(
        "pair, s, cols, probs, message",
        [
            # Listen/Listen's row for state 0 as two 0.5 entries at column 0:
            # it sums to 1, but a [:, ai, aj, :] read keeps one entry and its
            # domain file would repeat an (s, ai, aj, s').
            ((2, 2), 0, [0, 0], [0.5, 0.5],
             r"transition\[:, 2, 2\]: row 0 repeats or reorders column 0$"),
            ((0, 1), 1, [1, 0], [0.5, 0.5], r"transition\[:, 0, 1\]: row 1 .*reorders column 0"),
        ],
        ids=["repeated", "reordered"],
    )
    def test_row_columns_strictly_ascend(self, tiger2, pair, s, cols, probs, message):
        T = tiger2.transition
        r = (pair[0] * 3 + pair[1]) * 2 + s
        lo, hi = T.indptr[r], T.indptr[r + 1]
        indptr = T.indptr.copy()
        indptr[r + 1 :] += len(cols) - (hi - lo)
        indices = np.concatenate([T.indices[:lo], cols, T.indices[hi:]]).astype(np.int32)
        data = np.concatenate([T.data[:lo], probs, T.data[hi:]])
        with pytest.raises(DomainValidationError, match=message):
            JointTransition(indptr, indices, data, T.shape)

    def test_shape_and_type(self, tiger_j):
        with pytest.raises(DomainValidationError, match=r"transition: shape"):
            self._with_block1(tiger_j, shape=(2, 1, 1, 3))
        with pytest.raises(DomainValidationError, match=r"transition: ndarray"):
            _one_pair(tiger_j.transition[:, 1, :])


def _move_target(c: int, move: int) -> int:
    """The uav cell that ``move`` leads to from cell ``c``, one cell at a time."""
    x, y = c % domains._GRID, c // domains._GRID
    dx, dy = ((0, 1), (0, -1), (1, 0), (-1, 0), (0, 0))[move]
    nx = min(max(x + dx, 0), domains._GRID - 1)
    ny = min(max(y + dy, 0), domains._GRID - 1)
    return ny * domains._GRID + nx


def _fugitive_reference(horizon: int) -> SingleAgentModel:
    """The uav fugitive's level-0 view built one cell and move at a time."""
    G, A, safe = domains._GRID, len(domains._UAV_MOVES), domains._SAFE
    n = G * G
    T = np.zeros((n, A, n))
    R = np.zeros((n, A))
    Ob = np.zeros((n, A, 4))
    for c in range(n):
        for a in range(A):
            if c == safe:
                T[c, a, c] = 1.0
                continue
            t = _move_target(c, a)
            if t == c:
                T[c, a, c] = 1.0
            else:
                T[c, a, t] = 0.9
                T[c, a, c] = 0.1
            R[c, a] = -1.0 + 100.0 * T[c, a, safe]
        # The safe house's quadrant seen from c: 0.8 correct, ties north and east.
        dx, dy = safe % G - c % G, safe // G - c // G
        Ob[c] = 0.2 / 3.0
        Ob[c, :, 2 * (dy < 0) + (dx < 0)] = 0.8
    b0 = np.zeros(n)
    b0[n - 1] = 1.0  # corner opposite the safe house
    return SingleAgentModel(
        name="uav:level0:j",
        states=tuple("X%dY%d" % (c % G, c // G) for c in range(n)),
        actions=domains._UAV_MOVES,
        observations=domains._QUADS,
        transition=T,
        obs_fn=Ob,
        reward=R,
        initial_belief=b0,
        horizon=horizon,
    )


def _dense_uav_transition() -> np.ndarray:
    """The uav joint transition built densely, one += per move outcome."""
    n, A = domains._GRID ** 2, len(domains._UAV_MOVES)
    CAP, ESC, DONE = n * n, n * n + 1, n * n + 2
    S = n * n + 3
    tgt = np.array([[_move_target(c, a) for a in range(A)] for c in range(n)])
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


def _nonzero_entries(dense: np.ndarray) -> list:
    """The [s, ai, aj, s', p] entries of a dense table's nonzeros, in C order."""
    return [[*map(int, i), float(dense[i])] for i in zip(*np.nonzero(dense))]


class TestJointTransition:
    def test_uav_matches_dense_build(self, uav):
        dense = _dense_uav_transition()
        assert np.array_equal(_dense(uav.transition), dense)
        assert uav.transition == JointTransition.from_entries(_nonzero_entries(dense), dense.shape)
        assert uav.transition.shape == dense.shape
        T = uav.transition
        assert T.indptr.nbytes + T.indices.nbytes + T.data.nbytes < dense.nbytes / 100

    def test_tiger_matches_dense_build(self, tiger):
        dense = np.full((2, 3, 3, 2), 0.5)
        dense[:, 2, 2, :] = np.eye(2)
        assert np.array_equal(_dense(tiger.transition), dense)
        assert tiger.transition == JointTransition.from_entries(_nonzero_entries(dense), dense.shape)

    def test_blocks_hold_the_nonzeros_in_row_order(self, uav):
        """A pair's stored rows are its block's nonzeros, row by row."""
        dense = _dense_uav_transition()
        T = uav.transition
        S, _, Aj, _ = T.shape
        for ai, aj in ((0, 0), (2, 4), (4, 1)):
            ptr = T.indptr[(ai * Aj + aj) * S :][: S + 1]
            r, c = np.nonzero(dense[:, ai, aj, :])
            assert np.array_equal(np.repeat(np.arange(S), np.diff(ptr)), r)
            assert np.array_equal(T.indices[ptr[0] : ptr[-1]], c)
            assert np.array_equal(T.data[ptr[0] : ptr[-1]], dense[r, ai, aj, c])

    @pytest.mark.parametrize(
        "key",
        [
            (slice(None), 1, 2, slice(None)),
            (slice(None), 3, 0, slice(None)),
            (slice(None), 0, 1, slice(None)),
            (slice(None), 4, 0, slice(None)),
            (slice(None), 0, 0, slice(None)),
            (slice(None), 4, 4, slice(None)),
            (slice(None), np.int64(2), 1, slice(None)),
            (slice(None), np.int64(3), np.int32(1), slice(None)),
            (slice(None), 1, 3, slice(None)),
        ],
    )
    def test_basic_indexing_matches_dense(self, uav, key):
        """The one index form: [:, ai, aj, :] is a block."""
        got, want = uav.transition[key], _dense_uav_transition()[key]
        assert got.shape == want.shape and np.array_equal(got, want)
        assert not got.flags.writeable

    @pytest.mark.parametrize(
        "key",
        [
            (628,),
            (0, 5),
            (True,),
            (np.array([0, 1]),),
            (0, 0, 0, 0, 0),
            (..., ...),
            (17, 3, 0, 42),
            (-1, 0, 0),
            (628, 0, 0),
            (0, 5, 0),
            (0, True, 0),
            (slice(None), 1, 2),
            (slice(0, 5), 1, 2, slice(None)),
            (slice(None), 5, 0, slice(None)),
            Ellipsis,
            3,
            (17, 3, 0),
            (np.int64(600), np.int64(2), 1),
        ],
    )
    def test_bad_index(self, uav, key):
        """Every key but [:, ai, aj, :] is refused, a row [s, ai, aj] too."""
        with pytest.raises(IndexError, match=r"reads \[:, ai, aj, :\] with integers"):
            uav.transition[key]

    def test_not_densified(self, tiger):
        with pytest.raises(TypeError, match=r"read \[:, ai, aj, :\]"):
            np.asarray(tiger.transition)
        with pytest.raises(TypeError):
            np.array(tiger.transition, dtype=float)

    def test_equality_by_value(self, tiger, uav):
        again = JointTransition.from_entries(
            domain_to_obj(tiger)["transition"], tiger.transition.shape
        )
        assert again == tiger.transition and again is not tiger.transition
        assert tiger.transition != uav.transition
        # Mass moved between the two entries of one row: still a valid table.
        entries = domain_to_obj(tiger)["transition"]
        assert entries[0][:3] == entries[1][:3]
        entries[0][4], entries[1][4] = 0.25, 0.75
        assert tiger.transition != JointTransition.from_entries(entries, tiger.transition.shape)

    def test_pickle_keeps_it_read_only(self, uav):
        back = pickle.loads(pickle.dumps(uav.transition))
        assert back == uav.transition
        for arr in (back.indptr, back.indices, back.data):
            assert not arr.flags.writeable

    def test_each_table_is_checked_once(self, monkeypatch):
        # Checked when the table is built, not again by each domain that
        # holds it: a domain's replace keeps its table and checks none.
        calls = []
        check = domains._check_csr
        monkeypatch.setattr(domains, "_check_csr", lambda *a: calls.append(a) or check(*a))
        uav = domains.BUILTIN_DOMAINS["uav"](3)
        assert len(calls) == 1
        assert dataclasses.replace(uav, horizon=2).transition is uav.transition
        assert len(calls) == 1
        assert pickle.loads(pickle.dumps(uav)).transition == uav.transition
        assert len(calls) == 2

    def test_flat_shape_rejected(self, tiger):
        for table in (np.ones((2, 2)), _dense(tiger.transition)):
            with pytest.raises(DomainValidationError, match="transition: ndarray, expected a JointTransition"):
                dataclasses.replace(tiger, transition=table)


class TestFromEntries:
    def test_sorts_into_row_order_and_drops_zeros(self, tiger):
        entries = domain_to_obj(tiger)["transition"]
        shuffled = [entries[k] for k in np.random.default_rng(0).permutation(len(entries))]
        shuffled.append([0, 2, 2, 1, 0.0])  # an explicit zero is not stored
        again = JointTransition.from_entries(shuffled, tiger.transition.shape)
        assert again == tiger.transition
        assert again.indices.dtype == np.int32 and again.indptr.dtype == np.int64

    @pytest.mark.parametrize(
        "entry, match",
        [
            ([0, 0, 0, 0], r"entry 34 is not \[s, ai, aj, s', p\]"),
            ([0, 0, 0, 0, 0.5, 1], r"entry 34 is not"),
            ([0, 0, 0, "x", 0.5], r"entry 34 is not"),
            ([0, 0, 0, [0], 0.5], r"entry 34 is not"),
            ([0.5, 0, 0, 0, 0.5], r"entry 34 \[0\.5, 0\.0, 0\.0, 0\.0, 0\.5\] has an index"),
            ([2, 0, 0, 0, 0.5], r"entry 34 .* has an index that is not an integer inside \(2, 3, 3, 2\)"),
            ([0, 0, 3, 0, 0.5], r"entry 34 .* has an index"),
            ([0, -1, 0, 0, 0.5], r"entry 34 .* has an index"),
            ([0, 0, 0, np.nan, 0.5], r"entry 34 .* has an index"),
            ([1, 2, 0, 1, 0.5], r"entry 34 repeats \(s, ai, aj, s'\) \[1, 2, 0, 1\] of entry 27"),
            ([0, 0, 0, "0", 0.5], r"'0' is not a number"),
            ([0, 0, 0, 0, True], r"True is not a number"),
        ],
        ids=[
            "short", "long", "text", "nested", "fraction", "state-too-large",
            "peer-action-too-large", "negative", "nan-index", "duplicate",
            "numeric-string", "bool-probability",
        ],
    )
    def test_bad_entry_is_named(self, tiger, entry, match):
        entries = domain_to_obj(tiger)["transition"] + [entry]
        with pytest.raises(DomainValidationError, match="transition: " + match):
            JointTransition.from_entries(entries, tiger.transition.shape)


class TestSerialization:
    def test_roundtrip_canonical(self, tiger):
        text = serialize_domain(tiger)
        again = serialize_domain(domain_from_obj(json.loads(text)))
        assert text == again

    def test_roundtrip_values(self, tiger):
        d = domain_from_obj(json.loads(serialize_domain(tiger)))
        assert d.name == tiger.name
        assert d.states == tiger.states
        assert d.transition == tiger.transition
        assert np.array_equal(d.start, tiger.start)

    def test_start_omitted_is_uniform_and_written(self, tiger, uav):
        for domain in (tiger, uav):
            obj = domain_to_obj(domain)
            del obj["start"]
            d = domain_from_obj(obj)
            n = len(d.states)
            assert d.start.tobytes() == np.full(n, 1.0 / n).tobytes()
            assert not d.start.flags.writeable
        # tiger's own start is uniform, so a file without it serializes alike.
        obj = domain_to_obj(tiger)
        del obj["start"]
        text = serialize_domain(domain_from_obj(obj))
        assert json.loads(text)["start"] == [0.5, 0.5]
        assert text == serialize_domain(tiger)

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

    def test_uav_roundtrip(self, uav, tmp_path):
        text = serialize_domain(uav)
        path = tmp_path / "uav.json"
        path.write_text(text)
        d = load_domain(path)
        assert d.transition == uav.transition
        assert serialize_domain(d) == text
        # Files carry no level-0 views.
        assert d.level0 == {} and "level0" not in json.loads(text)

    def test_transition_is_entries_in_storage_order(self, tiger):
        entries = domain_to_obj(tiger)["transition"]
        assert len(entries) == tiger.transition.nnz == 34
        assert entries[:3] == [[0, 0, 0, 0, 0.5], [0, 0, 0, 1, 0.5], [1, 0, 0, 0, 0.5]]
        assert entries[-2:] == [[0, 2, 2, 0, 1.0], [1, 2, 2, 1, 1.0]]

    def test_dense_table_refused(self, tiger):
        obj = domain_to_obj(tiger)
        obj["transition"] = _dense(tiger.transition).tolist()
        with pytest.raises(
            DomainValidationError, match=r"transition: entry 0 is not \[s, ai, aj, s', p\]"
        ):
            domain_from_obj(obj)

    def test_labels_checked_before_entries(self, tiger):
        obj = domain_to_obj(tiger)
        obj["states"] = ["TigerLeft", "TigerLeft"]
        obj["transition"] = "not entries"
        with pytest.raises(DomainValidationError, match="states: duplicate"):
            domain_from_obj(obj)
        obj["states"] = list(tiger.states)
        with pytest.raises(DomainValidationError, match="transition: expected a list"):
            domain_from_obj(obj)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda t: t[5].pop(), r"transition: entry 5 is not \[s, ai, aj, s', p\]"),
            (lambda t: t[5].__setitem__(0, 1.5), r"transition: entry 5 \[1\.5, .* has an index"),
            (lambda t: t[5].__setitem__(3, 2), r"transition: entry 5 .* has an index"),
            (lambda t: t.append(list(t[7])), r"transition: entry 34 repeats .* of entry 7"),
            (lambda t: t[5].__setitem__(4, -0.5), r"transition\[:, 0, 1\]: negative"),
            (lambda t: t[5].__setitem__(4, float("inf")), r"transition\[:, 0, 1\]: non-finite"),
            (lambda t: t[26].__setitem__(4, 0.4), r"transition\[:, 2, 0\]: row 1 sums"),
        ],
        ids=["short", "fraction", "out-of-range", "duplicate", "negative", "infinite", "row-sum"],
    )
    def test_malformed_transition_named(self, tiger, edit, match):
        obj = json.loads(serialize_domain(tiger))
        edit(obj["transition"])
        with pytest.raises(DomainValidationError, match=match):
            domain_from_obj(obj)

    # The simulator's sampler refuses any negative probability, so a row
    # whose sum is within tolerance is refused all the same.
    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda o: o.__setitem__("start", [-1e-13, 1.0000000000001]), r"start: negative"),
            (
                lambda o: o["transition"].__setitem__(
                    slice(0, 2), [[0, 0, 0, 0, -1e-13], [0, 0, 0, 1, 1.0000000000001]]
                ),
                r"transition\[:, 0, 0\]: negative",
            ),
            (lambda o: o["obs_j"][0].__setitem__(2, [-1e-13, 1.0000000000001]), r"obs_fn_j: negative"),
        ],
        ids=["start", "transition", "obs_j"],
    )
    def test_tiny_negative_probability_refused(self, tiger, edit, match):
        obj = json.loads(serialize_domain(tiger))
        edit(obj)
        with pytest.raises(DomainValidationError, match=match):
            domain_from_obj(obj)


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
        d = builtin_domain("uav", 3)
        assert d is builtin_domain("uav", 3) is builtin_domain("uav")
        assert builtin_domain("tiger") is builtin_domain("tiger", 3)

    def test_horizons_are_distinct(self):
        d2, d3 = builtin_domain("tiger", 2), builtin_domain("tiger", 3)
        assert d2 is not d3
        assert (d2.horizon, d3.horizon) == (2, 3)

    def test_rebuilt_after_release(self, tiger_builds):
        d = builtin_domain("tiger", 2)
        assert builtin_domain("tiger", 2) is d and tiger_builds == [2]
        del d
        gc.collect()
        fresh = builtin_domain("tiger", 2)
        assert tiger_builds == [2, 2]
        assert _fields_equal(fresh, domains._build_tiger(2))


class TestReadOnly:
    def test_level0_rejects_writes(self, uav):
        with pytest.raises(TypeError):
            uav.level0["j"] = project_level0(uav, "j")
        with pytest.raises(TypeError):
            del uav.level0["j"]
        with pytest.raises(TypeError):
            uav.transition[0, 0, 0] = 0.5

    def test_callers_start_stays_writable(self, tiger):
        s = np.array([1.0, 0.0])
        d = dataclasses.replace(tiger, start=s)
        s[0] = 0.5
        assert d.start.tolist() == [1.0, 0.0] and not d.start.flags.writeable

    def test_pickle_roundtrip(self, uav):
        back = pickle.loads(pickle.dumps(uav))
        assert back is not uav
        assert _fields_equal(back, uav)
        with pytest.raises(TypeError):
            back.level0["i"] = back.level0["j"]

    def test_with_horizon_unchanged(self, uav, tiger):
        d4 = dataclasses.replace(uav, horizon=4)
        assert _fields_equal(d4, domains._build_uav(4))
        assert d4.transition is uav.transition
        assert d4.level0["j"].transition is uav.level0["j"].transition
        assert _fields_equal(dataclasses.replace(tiger, horizon=2), domains._build_tiger(2))

    def test_project_level0_unchanged(self, uav, tiger):
        # uav's prebuilt view: TestUavLevel0::test_equals_cell_by_cell_reference.
        # No prebuilt view for tiger: j's view marginalizes i's action.
        j = project_level0(tiger, "j")
        w = np.full(3, 1.0 / 3.0)
        assert np.array_equal(j.transition, np.einsum("a,sawt->swt", w, _dense(tiger.transition)))
        assert np.array_equal(j.reward, np.einsum("swa,a->sw", tiger.reward_j, w))
