import dataclasses
import re

import numpy as np
import pytest

from ididiv import (
    DomainValidationError,
    PolicyTree,
    SelectionConfig,
    builtin_domain,
    canonical_encode,
    cli,
    constant_tree,
    generate_known_models,
    make_candidate_set,
    project_level0,
    run_episode,
    run_experiment,
    save_candidate_set,
    select_topk,
    solve_idid,
    flatten,
    simulate,
    validate_model,
)
from ididiv.trees import _csv_line, all_trees, frame, node_table


def _levels(obs, *actions):
    """The complete tree whose every node on level t plays actions[t]."""
    levels = node_table(len(obs), len(actions)).level
    return PolicyTree(tuple(actions[t] for t in levels), tuple(obs))


def _tree(model, row):
    """The tree a sampled preorder row spells."""
    return PolicyTree(row, model.observations)


def _traced(*args, **kwargs):
    """``run_experiment``'s stats and the trace of every round, in order, as
    its ``on_round`` callback receives them."""
    traces = []

    def on_round(index, trace):
        assert index == len(traces)
        traces.append(trace)

    return run_experiment(*args, on_round=on_round, **kwargs), traces


def _rewards(*args, **kwargs):
    """Each round's total rewards, (agent i's, agent j's), from its trace."""
    _, traces = _traced(*args, **kwargs)
    return [(t.total_reward_i, t.total_reward_j) for t in traces]


def _spy_episodes(monkeypatch):
    """The (tree_i, tree_j) of each ``simulate.run_episode`` call, in order."""
    played = []

    def spy(domain, tree_i, tree_j, rng):
        played.append((tree_i, tree_j))
        return run_episode(domain, tree_i, tree_j, rng)

    monkeypatch.setattr(simulate, "run_episode", spy)
    return played


def _draw_by_encoding(model, anchors, excluded, rng):
    """Reference for ``_draw_novel_tree``: the same draws, each built as a
    tree and rejected by its canonical encoding; None when all are rejected."""
    cap = simulate._REJECTION_CAP
    for k in range(2 * cap):
        if k < cap:
            anchor = anchors[int(rng.integers(len(anchors)))]
        else:
            anchor = simulate._random_anchor(model, rng)
        tree = _tree(model, simulate.sample_tree(model, anchor, rng))
        if canonical_encode(tree) not in excluded:
            return tree.preorder
    return None


@pytest.fixture(scope="module")
def tiger2():
    return builtin_domain("tiger", 2)


@pytest.fixture(scope="module")
def cand2(tiger2):
    j = project_level0(tiger2, "j")
    known = generate_known_models(j, 2, seed=0)
    return select_topk(known, j, SelectionConfig(seed=0, k_max=4))


def _subject_tree(tiger2, cand2):
    return solve_idid(flatten(tiger2, cand2)).tree


class TestRunEpisode:
    def test_step_structure(self, tiger2, cand2):
        ti = _subject_tree(tiger2, cand2)
        tj = cand2.trees[0]
        ep = run_episode(tiger2, ti, tj, np.random.default_rng(0))
        assert len(ep.steps) == 2
        for t, st in enumerate(ep.steps):
            assert st.t == t
            assert st.state in tiger2.states
            assert st.action_i in tiger2.actions_i
            assert st.action_j in tiger2.actions_j
            assert st.obs_i in tiger2.observations_i
            assert st.obs_j in tiger2.observations_j
        assert ep.total_reward_i == pytest.approx(
            sum(s.reward_i for s in ep.steps)
        )
        assert ep.total_reward_j == pytest.approx(
            sum(s.reward_j for s in ep.steps)
        )

    def test_rewards_match_tables(self, tiger2, cand2):
        ti = _subject_tree(tiger2, cand2)
        tj = cand2.trees[0]
        ep = run_episode(tiger2, ti, tj, np.random.default_rng(3))
        for st in ep.steps:
            s = tiger2.states.index(st.state)
            ai = tiger2.actions_i.index(st.action_i)
            aj = tiger2.actions_j.index(st.action_j)
            assert st.reward_i == tiger2.reward_i[s, ai, aj]
            assert st.reward_j == tiger2.reward_j[s, aj, ai]

    def test_trees_steer_on_observations(self, tiger2, cand2):
        # The action at step 1 must be the child of the step-0 observation.
        ti = _subject_tree(tiger2, cand2)
        tj = cand2.trees[0]
        for seed in range(10):
            ep = run_episode(tiger2, ti, tj, np.random.default_rng(seed))
            s0, s1 = ep.steps
            assert s1.action_i == dict(ti.children)[s0.obs_i].action
            assert s1.action_j == dict(tj.children)[s0.obs_j].action

    def test_reproducible(self, tiger2, cand2):
        ti = _subject_tree(tiger2, cand2)
        tj = cand2.trees[0]
        a = run_episode(tiger2, ti, tj, np.random.default_rng(7))
        b = run_episode(tiger2, ti, tj, np.random.default_rng(7))
        assert a == b

    def test_fixed_start(self, tiger2, cand2):
        ti = _subject_tree(tiger2, cand2)
        tj = cand2.trees[0]
        left = dataclasses.replace(tiger2, start=np.array([1.0, 0.0]))
        ep = run_episode(left, ti, tj, np.random.default_rng(1))
        assert ep.steps[0].state == "TigerLeft"

    def test_depth_too_small(self, tiger2):
        deep = constant_tree("Listen", tiger2.observations_i, 2)
        shallow_i = constant_tree("Listen", tiger2.observations_i, 1)
        shallow_j = constant_tree("Listen", tiger2.observations_j, 1)
        with pytest.raises(ValueError, match="cover horizon"):
            run_episode(tiger2, shallow_i, shallow_j, np.random.default_rng(0))
        # Alphabet mismatch is caught before depth.
        with pytest.raises(Exception):
            run_episode(tiger2, deep, shallow_i, np.random.default_rng(0))

    def test_deeper_trees_follow_their_own_children(self, tiger2):
        # Depth-3 trees on a T=2 domain.  In a depth-3 preorder the root's
        # children are not nodes 1, 2, ..., as in a depth-2 one, so step 1
        # must play the level-1 action, never the level-2 one.
        ti = _levels(tiger2.observations_i, "Listen", "OpenLeft", "OpenRight")
        tj = _levels(tiger2.observations_j, "Listen", "OpenRight", "OpenLeft")
        seen = set()
        for seed in range(20):
            s0, s1 = run_episode(tiger2, ti, tj, np.random.default_rng(seed)).steps
            assert s1.action_i == dict(ti.children)[s0.obs_i].action == "OpenLeft"
            assert s1.action_j == dict(tj.children)[s0.obs_j].action == "OpenRight"
            seen.update((s0.obs_i, s0.obs_j))
        assert {"GrowlRight", "GrowlRightSilence"} <= seen


class TestRunExperiment:
    def test_from_set_stats(self, tiger2, cand2):
        stats, traces = _traced(tiger2, cand2, "from-set", rounds=20, seed=0)
        rewards_i = [t.total_reward_i for t in traces]
        assert stats.rounds == len(traces) == 20
        assert stats.mean_reward_i == np.mean(rewards_i)
        assert stats.reward_variance_i == np.var(rewards_i, ddof=1)
        assert stats.mean_reward_j == np.mean([t.total_reward_j for t in traces])
        assert "traces" not in {f.name for f in dataclasses.fields(stats)}

    def test_every_round_plays_the_solved_tree(self, tiger2, cand2, monkeypatch):
        # Each round is one run_episode call, the solved policy as tree_i
        # and a candidate as tree_j.
        played = _spy_episodes(monkeypatch)
        stats, traces = _traced(tiger2, cand2, "from-set", rounds=20, seed=0)
        policy = solve_idid(flatten(tiger2, cand2)).tree
        assert len(played) == 20
        for (tree_i, tree_j), trace in zip(played, traces):
            assert tree_i == policy and tree_j in cand2.trees
            assert trace.steps[0].action_i == policy.action
            assert trace.steps[0].action_j == tree_j.action

    def test_random_generated_rounds_play_depth_t_peer_trees(self, tiger2, cand2, monkeypatch):
        # Each drawn peer is built as a depth-T tree over the peer's
        # observations, outside the candidate set, and played as drawn.
        played = _spy_episodes(monkeypatch)
        stats, traces = _traced(tiger2, cand2, "random-generated", rounds=20, seed=0)
        policy = solve_idid(flatten(tiger2, cand2)).tree
        assert len(played) == 20
        for (tree_i, tree_j), trace in zip(played, traces):
            assert tree_i == policy
            assert (tree_j.depth, tree_j.observations) == (tiger2.horizon, tiger2.observations_j)
            assert tree_j not in cand2.trees
            assert trace.steps[0].action_j == tree_j.action

    def test_policy_value_reported(self, tiger2, cand2):
        stats = run_experiment(tiger2, cand2, "from-set", rounds=2, seed=0)
        assert stats.policy_value == solve_idid(flatten(tiger2, cand2)).value

    def test_reproducible(self, tiger2, cand2):
        a = _rewards(tiger2, cand2, "from-set", rounds=10, seed=5)
        assert a == _rewards(tiger2, cand2, "from-set", rounds=10, seed=5)

    def test_seed_matters(self, tiger2, cand2):
        # The subject listens throughout at this horizon, so its own reward
        # stream is flat; the peer draw exposes the seed.
        a = _rewards(tiger2, cand2, "from-set", rounds=10, seed=5)
        assert a != _rewards(tiger2, cand2, "from-set", rounds=10, seed=6)

    def test_seed_sequence_accepted(self, tiger2, cand2):
        ss = np.random.SeedSequence(5)
        a = _rewards(tiger2, cand2, "from-set", rounds=10, seed=ss)
        b = _rewards(tiger2, cand2, "from-set", rounds=10, seed=np.random.SeedSequence(5))
        assert a == b

    def test_prefix_stability(self, tiger2, cand2):
        # Per-round spawns: the first rounds of a longer run replay exactly.
        short = _rewards(tiger2, cand2, "from-set", rounds=5, seed=9)
        long = _rewards(tiger2, cand2, "from-set", rounds=15, seed=9)
        assert long[:5] == short

    def test_traces_kept_on_request(self, tiger2, cand2):
        stats, traces = _traced(tiger2, cand2, "from-set", rounds=3, seed=0)
        assert len(traces) == 3
        assert stats.mean_reward_i == np.mean([t.total_reward_i for t in traces])

    def test_random_generated_outside_set(self, tiger2, cand2):
        stats, traces = _traced(
            tiger2,
            cand2,
            "random-generated",
            rounds=8,
            seed=3,
        )
        assert stats.rounds == 8
        # The peer's realized openings can only come from tree actions, and
        # in this mode the tree is sampled outside the candidate set; check
        # the recorded actions stay inside the peer alphabet.
        for tr in traces:
            for st in tr.steps:
                assert st.action_j in tiger2.actions_j

    def test_deeper_candidates_follow_their_own_children(self, tiger2):
        # Depth-3 candidates on a T=2 domain, told apart by their root
        # action; each round's peer steps through its own tree's children.
        deep = [
            _levels(tiger2.observations_j, "Listen", "OpenLeft", "OpenRight"),
            _levels(tiger2.observations_j, "OpenRight", "Listen", "OpenLeft"),
        ]
        stats, traces = _traced(
            tiger2, make_candidate_set(deep, 2), "from-set", rounds=20, seed=0,
        )
        by_root = {t.action: t for t in deep}
        seen = set()
        for tr in traces:
            s0, s1 = tr.steps
            tree = by_root[s0.action_j]
            assert s1.action_j == dict(tree.children)[s0.obs_j].action
            assert s1.action_j == dict(tree.children)["GrowlLeft"].action
            seen.add((s0.action_j, s0.obs_j))
        assert len(seen) == 4

    def test_deeper_candidates_random_generated(self, tiger2, monkeypatch):
        # Depth-3 candidates on a T=2 domain: anchors and the exclusion are
        # the candidates' depth-2 frames, so no drawn peer plays exactly as
        # a candidate does.
        j3 = project_level0(builtin_domain("tiger", 3), "j")
        known = generate_known_models(j3, 3, seed=0)
        cand = select_topk(known, j3, SelectionConfig(seed=0, k_max=6))
        frames = {frame(t, 2).preorder for t in cand.trees}
        drawn = []
        draw = simulate._draw_novel_tree

        def spy(model, anchors, excluded, rng):
            assert all(len(a.actions) == 2 for a in anchors)
            assert frames <= excluded
            drawn.append(draw(model, anchors, excluded, rng))
            return drawn[-1]

        monkeypatch.setattr(simulate, "_draw_novel_tree", spy)
        stats, traces = _traced(tiger2, cand, "random-generated", rounds=12, seed=4)
        assert stats.rounds == len(drawn) == 12
        assert all(len(row) == 3 and row not in frames for row in drawn)
        for row, tr in zip(drawn, traces):
            tree = PolicyTree(row, tiger2.observations_j)
            s0, s1 = tr.steps
            assert s0.action_j == tree.action
            assert s1.action_j == dict(tree.children)[s0.obs_j].action

    def test_single_round_variance_zero(self, tiger2, cand2):
        stats = run_experiment(tiger2, cand2, "from-set", rounds=1, seed=0)
        assert stats.reward_variance_i == 0.0

    def test_bad_mode(self, tiger2, cand2):
        with pytest.raises(ValueError):
            run_experiment(tiger2, cand2, "telepathic")

    def test_bad_rounds(self, tiger2, cand2):
        with pytest.raises(ValueError):
            run_experiment(tiger2, cand2, rounds=0)
        # Refused before any seed is spawned or model flattened.
        with pytest.raises(ValueError, match="rounds must be <= 100000, got 10{30}$"):
            run_experiment(tiger2, cand2, rounds=10**30)

    def test_round_seeds_are_the_children_of_the_seed(self, tiger2, cand2, monkeypatch):
        # Round k plays on child k of the seed, the child spawn(rounds) gives.
        seen = []
        make = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda ss: seen.append(ss) or make(ss))
        run_experiment(tiger2, cand2, rounds=4, seed=11)
        expect = np.random.SeedSequence(11).spawn(4)
        assert [(s.entropy, s.spawn_key) for s in seen] == [
            (s.entropy, s.spawn_key) for s in expect
        ]

    def test_rejection_cap_exhaustion(self, tiger2):
        # A single-tree candidate "set" that already contains every tree a
        # deterministic draw can produce: impossible to leave, must raise.
        j = project_level0(tiger2, "j")
        # All 3**3 = 27 depth-2 trees of the peer enumerate cheaply; put
        # every one of them in the exclusion set via the candidate list.
        from ididiv.trees import all_trees

        trees = list(all_trees(j.actions, j.observations, 2))
        cand = make_candidate_set(trees, 2)
        with pytest.raises(RuntimeError, match="outside the candidate set"):
            run_experiment(tiger2, cand, "random-generated", rounds=1, seed=0)


class TestExcludedEncodings:
    """``run_experiment(excluded_trees=...)``, the exclusion a grid shares
    across algorithms, against exclusion by canonical encoding."""

    def test_rejected_for_from_set(self, tiger2, cand2):
        with pytest.raises(ValueError, match="random-generated"):
            run_experiment(
                tiger2, cand2, "from-set", rounds=1, seed=0,
                excluded_trees=frozenset(),
            )

    def test_own_set_idempotent(self, tiger2, cand2):
        # Widening the exclusion by trees it already avoids cannot change
        # the draw stream, so the whole run reproduces.
        a = _rewards(tiger2, cand2, "random-generated", rounds=6, seed=9)
        b = _rewards(
            tiger2, cand2, "random-generated", rounds=6, seed=9,
            excluded_trees=frozenset(cand2.trees),
        )
        assert a == b

    def test_draw_deterministic_in_arguments(self, tiger2):
        # Identically seeded rngs and equal exclusions give the identical
        # tree, which is what makes a shared exclusion pair runs exactly.
        from ididiv.features import extract_features
        from ididiv.generation import convert_to_dbn
        from ididiv.simulate import _draw_novel_tree

        j = project_level0(tiger2, "j")
        known = generate_known_models(j, 2, seed=0)
        dbn = convert_to_dbn(j)
        anchors = extract_features(known)
        rows = frozenset(t.preorder for t in known)
        a = _tree(j, _draw_novel_tree(dbn, anchors, rows, np.random.default_rng(21)))
        b = _tree(j, _draw_novel_tree(dbn, anchors, rows, np.random.default_rng(21)))
        assert a == b
        assert a not in known

    def test_exclusion_forces_unique_survivor(self, tiger2):
        # Exclude every depth-2 tree except one reachable target: any draw
        # that terminates must return exactly that tree, and the episodes
        # must show the peer acting it out.
        from ididiv.features import extract_features
        from ididiv.generation import convert_to_dbn
        from ididiv.simulate import _draw_novel_tree

        j = project_level0(tiger2, "j")
        known = generate_known_models(j, 2, seed=0)
        dbn = convert_to_dbn(j)
        anchors = extract_features(known)
        tau = _tree(j, _draw_novel_tree(dbn, anchors, frozenset(), np.random.default_rng(5)))
        excl = frozenset(all_trees(j.actions, j.observations, 2)) - {tau}

        rows = frozenset(t.preorder for t in excl)
        got = _tree(j, _draw_novel_tree(dbn, anchors, rows, np.random.default_rng(7)))
        assert got == tau

        pool = [t for t in all_trees(j.actions, j.observations, 2) if t != tau]
        cand = make_candidate_set(pool[:2], 2)
        stats, traces = _traced(
            tiger2, cand, "random-generated", rounds=3, seed=13,
            excluded_trees=excl,
        )
        for tr in traces:
            assert tr.steps[0].action_j == tau.action
            branch = dict(tau.children)[tr.steps[0].obs_j]
            assert tr.steps[1].action_j == branch.action

    @staticmethod
    def _other_shapes(j):
        """Every depth-2 action row of the peer, as a tree over another
        observation alphabet and as a depth-3 tree over one observation (also
        three nodes): trees no drawn tree can equal."""
        rows = [t.preorder for t in all_trees(j.actions, j.observations, 2)]
        return frozenset(
            PolicyTree(r, obs) for r in rows for obs in (("Left", "Right"), ("GrowlLeft",))
        )

    def test_other_shapes_leave_draws_alone(self, tiger2, cand2):
        j = project_level0(tiger2, "j")
        a = _traced(tiger2, cand2, "random-generated", rounds=6, seed=9)[1]
        b = _traced(
            tiger2, cand2, "random-generated", rounds=6, seed=9,
            excluded_trees=self._other_shapes(j),
        )[1]
        assert a == b

    def test_deeper_trees_excluded_by_their_frames(self, tiger2, cand2):
        # An excluded tree deeper than the horizon excludes its frame, so it
        # draws what excluding the frame itself draws.
        universe = list(all_trees(tiger2.actions_j, tiger2.observations_j, 2))[::3]
        deep = frozenset(
            PolicyTree((r, a, "Listen", "Listen", b, "Listen", "Listen"), t.observations)
            for t in universe
            for r, a, b in [t.preorder]
        )
        assert {frame(t, 2) for t in deep} == set(universe)
        a = _traced(
            tiger2, cand2, "random-generated", rounds=6, seed=9,
            excluded_trees=frozenset(universe),
        )[1]
        b = _traced(tiger2, cand2, "random-generated", rounds=6, seed=9, excluded_trees=deep)[1]
        c = _traced(tiger2, cand2, "random-generated", rounds=6, seed=9)[1]
        assert a == b != c

    def test_rows_match_encoding_reference(self, tiger2):
        # With the same rng, exclusion by the rows of the excluded trees of a
        # drawn tree's shape draws what exclusion by encoding draws, leaves
        # the rng in the same state, and gives up alike.
        from ididiv.features import extract_features
        from ididiv.simulate import _draw_novel_tree

        j = project_level0(tiger2, "j")
        known = generate_known_models(j, 2, seed=0)
        anchors = extract_features(known)
        universe = list(all_trees(j.actions, j.observations, 2))
        other = self._other_shapes(j)
        cases = [
            frozenset(),
            frozenset(known) | other,
            frozenset(universe[::2]) | other,
            frozenset(universe) - {universe[5]},
            frozenset(universe) | other,
        ]
        outcomes = set()
        for excl in cases:
            encodings = frozenset(map(canonical_encode, excl))
            rows = frozenset(t.preorder for t in excl if t.observations == j.observations)
            for seed in range(4):
                ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
                want = _draw_by_encoding(j, anchors, encodings, ref_rng)
                try:
                    got = _draw_novel_tree(j, anchors, rows, rng)
                except RuntimeError:
                    got = None
                assert got == want
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                outcomes.add(want is None)
        assert outcomes == {True, False}


class TestCsv:
    """``episodes.csv`` as ``simulate`` writes it: the header, then each
    round's ``episode_rows`` through ``_csv_line`` as the round ends."""

    def _simulate(self, tmp_path, cand2, name, rounds, seed):
        path = save_candidate_set(cand2, tmp_path / "candidates.json")
        argv = ["--seed", seed, "--out-dir", tmp_path / name, "simulate",
                "--horizon", 2, "--candidates", path, "--rounds", rounds]
        assert cli.main([str(a) for a in argv]) == 0
        return (tmp_path / name / "episodes.csv").read_text()

    def test_golden_shape(self, tmp_path, tiger2, cand2):
        text = self._simulate(tmp_path, cand2, "sim", 2, 0)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "round,t,state,action_i,action_j,reward_i,reward_j,"
            "next_state,obs_i,obs_j"
        )
        assert len(lines) == 1 + 2 * 2
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert first[2] in tiger2.states
        traces = _traced(tiger2, cand2, "from-set", rounds=2, seed=0)[1]
        rows = [row for k, tr in enumerate(traces) for row in simulate.episode_rows(k, tr)]
        assert text == "".join(map(_csv_line, [simulate.EPISODE_COLUMNS, *rows]))

    def test_byte_reproducible(self, tmp_path, cand2):
        a = self._simulate(tmp_path, cand2, "a", 4, 2)
        assert a == self._simulate(tmp_path, cand2, "b", 4, 2)

    def test_float_cells_keep_every_digit(self):
        step = simulate.StepRecord(
            t=0, state="s", action_i="a", action_j="b", reward_i=-1.0,
            reward_j=0.1 + 0.2, next_state="s2", obs_i="o", obs_j="p",
        )
        trace = simulate.EpisodeTrace(steps=(step,), total_reward_i=-1.0, total_reward_j=0.1 + 0.2)
        lines = list(map(_csv_line, simulate.episode_rows(0, trace)))
        assert lines == ["0,0,s,a,b,-1.0,0.30000000000000004,s2,o,p\n"]


@pytest.mark.parametrize("name", ["k_max", "patience", "count", "rounds"])
def test_counts_refuse_non_integers_by_name(name, tiger_j, tiger2, cand2):
    # A float or a bool count is refused, not truncated or read as 1; a
    # numpy integer is accepted.
    call = {
        "k_max": lambda n: SelectionConfig(k_max=n),
        "patience": lambda n: SelectionConfig(patience=n),
        "count": lambda n: generate_known_models(tiger_j, n, seed=0),
        "rounds": lambda n: run_experiment(tiger2, cand2, rounds=n, seed=0),
    }[name]
    for bad in (2.5, True):
        with pytest.raises(ValueError, match=re.escape("%s: %r is not an integer" % (name, bad))):
            call(bad)
    call(np.int64(2))


@pytest.mark.parametrize("name", ["builtin_domain", "replace", "validate_model", "n_observations"])
def test_horizons_and_observation_counts_are_counts(name, tiger2):
    # A horizon of 2.5 used to build and plan 3 decisions, and True 1; a
    # horizon or observation count is an integer of at least 1, a numpy one
    # included.
    if name == "n_observations":
        key, error, accepted = name, ValueError, np.int64(2)
        tree = constant_tree("Listen", ("a", "b"), 2)
        call = lambda n: make_candidate_set([tree], n)  # noqa: E731
    else:
        key, error, accepted = "horizon", DomainValidationError, np.int64(3)
        j = project_level0(tiger2, "j")
        call = {
            "builtin_domain": lambda h: builtin_domain("tiger", h),
            "replace": lambda h: dataclasses.replace(tiger2, horizon=h),
            "validate_model": lambda h: validate_model(dataclasses.replace(j, horizon=h)),
        }[name]
    for bad in (2.5, True, "3", 0):
        if type(bad) is int:
            message = "%s must be >= 1, got %d$" % (key, bad)
        else:
            message = re.escape("%s: %r is not an integer" % (key, bad)) + "$"
        with pytest.raises(ValueError, match=message) as info:
            call(bad)
        assert type(info.value) is error
    call(accepted)
