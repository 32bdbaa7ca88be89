import dataclasses

import numpy as np
import pytest

from ididiv import (
    PolicyTree,
    SelectionConfig,
    builtin_tiger,
    canonical_encode,
    constant_tree,
    episodes_to_csv,
    generate_known_models,
    make_candidate_set,
    project_level0,
    run_episode,
    run_experiment,
    select_topk,
    solve_idid,
    flatten,
    simulate,
)
from ididiv.trees import _encoded_rows, all_trees, node_table


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
    return builtin_tiger(2)


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
        stats = run_experiment(tiger2, cand2, "from-set", rounds=20, seed=0)
        assert stats.rounds == 20
        assert len(stats.rewards_i) == 20
        assert stats.mean_reward_i == pytest.approx(np.mean(stats.rewards_i))
        assert stats.reward_variance_i == pytest.approx(
            np.var(stats.rewards_i, ddof=1)
        )
        assert "traces" not in {f.name for f in dataclasses.fields(stats)}

    def test_trees_checked_once(self, tiger2, cand2, monkeypatch):
        # flatten checks the candidates; the rounds re-check no tree.
        checked = []
        monkeypatch.setattr(
            simulate, "validate_tree", lambda tree, *a, **kw: checked.append(tree)
        )
        stats, traces = _traced(tiger2, cand2, "from-set", rounds=20, seed=0)
        assert checked == [solve_idid(flatten(tiger2, cand2)).tree]
        assert traces[0].steps[0].action_i == checked[0].action

    def test_policy_value_reported(self, tiger2, cand2):
        stats = run_experiment(tiger2, cand2, "from-set", rounds=2, seed=0)
        assert stats.policy_value == solve_idid(flatten(tiger2, cand2)).value

    def test_reproducible(self, tiger2, cand2):
        a = run_experiment(tiger2, cand2, "from-set", rounds=10, seed=5)
        b = run_experiment(tiger2, cand2, "from-set", rounds=10, seed=5)
        assert a.rewards_i == b.rewards_i
        assert a.rewards_j == b.rewards_j

    def test_seed_matters(self, tiger2, cand2):
        # The subject listens throughout at this horizon, so its own reward
        # stream is flat; the peer draw exposes the seed.
        a = run_experiment(tiger2, cand2, "from-set", rounds=10, seed=5)
        b = run_experiment(tiger2, cand2, "from-set", rounds=10, seed=6)
        assert (a.rewards_i, a.rewards_j) != (b.rewards_i, b.rewards_j)

    def test_seed_sequence_accepted(self, tiger2, cand2):
        ss = np.random.SeedSequence(5)
        a = run_experiment(tiger2, cand2, "from-set", rounds=10, seed=ss)
        b = run_experiment(
            tiger2, cand2, "from-set", rounds=10, seed=np.random.SeedSequence(5)
        )
        assert a.rewards_i == b.rewards_i

    def test_prefix_stability(self, tiger2, cand2):
        # Per-round spawns: the first rounds of a longer run replay exactly.
        short = run_experiment(tiger2, cand2, "from-set", rounds=5, seed=9)
        long = run_experiment(tiger2, cand2, "from-set", rounds=15, seed=9)
        assert long.rewards_i[:5] == short.rewards_i

    def test_traces_kept_on_request(self, tiger2, cand2):
        stats, traces = _traced(tiger2, cand2, "from-set", rounds=3, seed=0)
        assert len(traces) == 3
        assert traces[0].total_reward_i == stats.rewards_i[0]

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
    def test_rejected_for_from_set(self, tiger2, cand2):
        with pytest.raises(ValueError, match="random-generated"):
            run_experiment(
                tiger2, cand2, "from-set", rounds=1, seed=0,
                excluded_encodings=frozenset(),
            )

    def test_own_set_idempotent(self, tiger2, cand2):
        # Widening the exclusion by trees it already avoids cannot change
        # the draw stream, so the whole run reproduces.
        own = frozenset(canonical_encode(t) for t in cand2.trees)
        a = run_experiment(tiger2, cand2, "random-generated", rounds=6, seed=9)
        b = run_experiment(
            tiger2, cand2, "random-generated", rounds=6, seed=9,
            excluded_encodings=own,
        )
        assert a.rewards_i == b.rewards_i
        assert a.rewards_j == b.rewards_j

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
        excl = frozenset(canonical_encode(t) for t in known)
        rows = _encoded_rows(excl, dbn.observations, 2)
        a = _tree(j, _draw_novel_tree(dbn, anchors, rows, np.random.default_rng(21)))
        b = _tree(j, _draw_novel_tree(dbn, anchors, rows, np.random.default_rng(21)))
        assert canonical_encode(a) == canonical_encode(b)
        assert canonical_encode(a) not in excl

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
        universe = {canonical_encode(t) for t in all_trees(j.actions, j.observations, 2)}
        excl = frozenset(universe - {canonical_encode(tau)})

        rows = _encoded_rows(excl, j.observations, 2)
        got = _tree(j, _draw_novel_tree(dbn, anchors, rows, np.random.default_rng(7)))
        assert canonical_encode(got) == canonical_encode(tau)

        pool = [
            t for t in all_trees(j.actions, j.observations, 2)
            if canonical_encode(t) != canonical_encode(tau)
        ]
        cand = make_candidate_set(pool[:2], 2)
        stats, traces = _traced(
            tiger2, cand, "random-generated", rounds=3, seed=13,
            excluded_encodings=excl,
        )
        for tr in traces:
            assert tr.steps[0].action_j == tau.action
            branch = dict(tau.children)[tr.steps[0].obs_j]
            assert tr.steps[1].action_j == branch.action

    @staticmethod
    def _other_shapes(j):
        """Every depth-2 action row of the peer, spelled under another
        observation alphabet and under depth 3 over one observation (also
        three nodes): encodings no drawn tree can have."""
        rows = ["|".join(t.preorder) for t in all_trees(j.actions, j.observations, 2)]
        return frozenset(h + r for r in rows for h in ("2;Left,Right;", "3;GrowlLeft;"))

    def test_other_shapes_leave_draws_alone(self, tiger2, cand2):
        j = project_level0(tiger2, "j")
        a = _traced(tiger2, cand2, "random-generated", rounds=6, seed=9)[1]
        b = _traced(
            tiger2, cand2, "random-generated", rounds=6, seed=9,
            excluded_encodings=self._other_shapes(j),
        )[1]
        assert a == b

    def test_rows_match_encoding_reference(self, tiger2):
        # With the same rng, row exclusion draws what exclusion by encoding
        # draws, leaves the rng in the same state, and gives up alike.
        from ididiv.features import extract_features
        from ididiv.simulate import _draw_novel_tree

        j = project_level0(tiger2, "j")
        known = generate_known_models(j, 2, seed=0)
        anchors = extract_features(known)
        universe = [canonical_encode(t) for t in all_trees(j.actions, j.observations, 2)]
        other = self._other_shapes(j)
        cases = [
            frozenset(),
            frozenset(canonical_encode(t) for t in known) | other,
            frozenset(universe[::2]) | other,
            frozenset(universe) - {universe[5]},
            frozenset(universe) | other,
        ]
        outcomes = set()
        for excl in cases:
            rows = _encoded_rows(excl, j.observations, 2)
            for seed in range(4):
                ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
                want = _draw_by_encoding(j, anchors, excl, ref_rng)
                try:
                    got = _draw_novel_tree(j, anchors, rows, rng)
                except RuntimeError:
                    got = None
                assert got == want
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                outcomes.add(want is None)
        assert outcomes == {True, False}


class TestCsv:
    def test_golden_shape(self, tiger2, cand2):
        traces = _traced(tiger2, cand2, "from-set", rounds=2, seed=0)[1]
        text = episodes_to_csv(traces)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "round,t,state,action_i,action_j,reward_i,reward_j,"
            "next_state,obs_i,obs_j"
        )
        assert len(lines) == 1 + 2 * 2
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert first[2] in tiger2.states

    def test_byte_reproducible(self, tiger2, cand2):
        a = _traced(tiger2, cand2, "from-set", rounds=4, seed=2)[1]
        b = _traced(tiger2, cand2, "from-set", rounds=4, seed=2)[1]
        assert episodes_to_csv(a) == episodes_to_csv(b)

    def test_float_cells_keep_every_digit(self):
        step = simulate.StepRecord(
            t=0, state="s", action_i="a", action_j="b", reward_i=-1.0,
            reward_j=0.1 + 0.2, next_state="s2", obs_i="o", obs_j="p",
        )
        trace = simulate.EpisodeTrace(steps=(step,), total_reward_i=-1.0, total_reward_j=0.1 + 0.2)
        lines = episodes_to_csv([trace]).split("\n")
        assert lines[1:] == ["0,0,s,a,b,-1.0,0.30000000000000004,s2,o,p", ""]
