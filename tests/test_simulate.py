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


class TestRunExperiment:
    def test_from_set_stats(self, tiger2, cand2):
        stats = run_experiment(tiger2, cand2, "from-set", rounds=20, seed=0)
        assert stats.rounds == 20
        assert len(stats.rewards_i) == 20
        assert stats.mean_reward_i == pytest.approx(np.mean(stats.rewards_i))
        assert stats.reward_variance_i == pytest.approx(
            np.var(stats.rewards_i, ddof=1)
        )
        assert stats.traces is None

    def test_trees_checked_once(self, tiger2, cand2, monkeypatch):
        # flatten checks the candidates; the rounds re-check no tree.
        checked = []
        monkeypatch.setattr(
            simulate, "validate_tree", lambda tree, *a, **kw: checked.append(tree)
        )
        stats = run_experiment(tiger2, cand2, "from-set", rounds=20, seed=0, keep_traces=True)
        assert checked == [solve_idid(flatten(tiger2, cand2)).tree]
        assert stats.traces[0].steps[0].action_i == checked[0].action

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
        stats = run_experiment(
            tiger2, cand2, "from-set", rounds=3, seed=0, keep_traces=True
        )
        assert stats.traces is not None and len(stats.traces) == 3
        assert stats.traces[0].total_reward_i == stats.rewards_i[0]

    def test_random_generated_outside_set(self, tiger2, cand2):
        stats = run_experiment(
            tiger2,
            cand2,
            "random-generated",
            rounds=8,
            seed=3,
            keep_traces=True,
        )
        assert stats.rounds == 8
        # The peer's realized openings can only come from tree actions, and
        # in this mode the tree is sampled outside the candidate set; check
        # the recorded actions stay inside the peer alphabet.
        for tr in stats.traces:
            for st in tr.steps:
                assert st.action_j in tiger2.actions_j

    def test_single_round_variance_zero(self, tiger2, cand2):
        stats = run_experiment(tiger2, cand2, "from-set", rounds=1, seed=0)
        assert stats.reward_variance_i == 0.0

    def test_bad_mode(self, tiger2, cand2):
        with pytest.raises(ValueError):
            run_experiment(tiger2, cand2, "telepathic")

    def test_bad_rounds(self, tiger2, cand2):
        with pytest.raises(ValueError):
            run_experiment(tiger2, cand2, rounds=0)

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
        a = _draw_novel_tree(dbn, anchors, excl, np.random.default_rng(21))
        b = _draw_novel_tree(dbn, anchors, excl, np.random.default_rng(21))
        assert canonical_encode(a) == canonical_encode(b)
        assert canonical_encode(a) not in excl

    def test_exclusion_forces_unique_survivor(self, tiger2):
        # Exclude every depth-2 tree except one reachable target: any draw
        # that terminates must return exactly that tree, and the episodes
        # must show the peer acting it out.
        from ididiv.features import extract_features
        from ididiv.generation import convert_to_dbn
        from ididiv.simulate import _draw_novel_tree
        from ididiv.trees import all_trees

        j = project_level0(tiger2, "j")
        known = generate_known_models(j, 2, seed=0)
        dbn = convert_to_dbn(j)
        anchors = extract_features(known)
        tau = _draw_novel_tree(dbn, anchors, frozenset(), np.random.default_rng(5))
        universe = {canonical_encode(t) for t in all_trees(j.actions, j.observations, 2)}
        excl = frozenset(universe - {canonical_encode(tau)})

        got = _draw_novel_tree(dbn, anchors, excl, np.random.default_rng(7))
        assert canonical_encode(got) == canonical_encode(tau)

        pool = [
            t for t in all_trees(j.actions, j.observations, 2)
            if canonical_encode(t) != canonical_encode(tau)
        ]
        cand = make_candidate_set(pool[:2], 2)
        stats = run_experiment(
            tiger2, cand, "random-generated", rounds=3, seed=13,
            excluded_encodings=excl, keep_traces=True,
        )
        for tr in stats.traces:
            assert tr.steps[0].action_j == tau.action
            branch = dict(tau.children)[tr.steps[0].obs_j]
            assert tr.steps[1].action_j == branch.action


class TestCsv:
    def test_golden_shape(self, tiger2, cand2):
        stats = run_experiment(
            tiger2, cand2, "from-set", rounds=2, seed=0, keep_traces=True
        )
        text = episodes_to_csv(stats.traces)
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
        a = run_experiment(
            tiger2, cand2, "from-set", rounds=4, seed=2, keep_traces=True
        )
        b = run_experiment(
            tiger2, cand2, "from-set", rounds=4, seed=2, keep_traces=True
        )
        assert episodes_to_csv(a.traces) == episodes_to_csv(b.traces)

    def test_float_cells_keep_every_digit(self):
        step = simulate.StepRecord(
            t=0, state="s", action_i="a", action_j="b", reward_i=-1.0,
            reward_j=0.1 + 0.2, next_state="s2", obs_i="o", obs_j="p",
        )
        trace = simulate.EpisodeTrace(steps=(step,), total_reward_i=-1.0, total_reward_j=0.1 + 0.2)
        lines = episodes_to_csv([trace]).split("\n")
        assert lines[1:] == ["0,0,s,a,b,-1.0,0.30000000000000004,s2,o,p", ""]
