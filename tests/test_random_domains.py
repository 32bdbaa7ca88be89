"""Random two-agent domains as a differential oracle for the exact contracts.

Each example is a small domain from ``conftest.random_domains``, with
zero-probability observation branches, rewards that depend on the peer's
action, candidates deeper than the horizon and zero-prior candidates, none
of which the built-in domains cover together.  Checks:

(a) ``evaluate_policy`` on the flattened model equals ``_oracle_value``, a
    recursion straight over the domain tables, for the solved tree and for
    random subject trees;
(b) ``solve_exact`` agrees with ``brute_force_solve`` on the flattened model
    wherever there are at most 200,000 subject trees;
(c) a from-set ``run_experiment`` of 2,000 rounds, which plays the domain's
    stored rows, has a mean reward within five standard errors of the
    planned ``policy_value``.

Hypothesis is derandomized, so every run draws the same examples.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from ididiv import (
    TIE_TOL,
    brute_force_solve,
    evaluate_policy,
    flatten,
    run_experiment,
    solve_exact,
)
from ididiv.trees import count_trees
from conftest import _DERANDOMIZED, random_domains, random_tree
from test_flattening import _oracle_value

# The most subject trees brute_force_solve enumerates here, its own default
# cap; 3 actions and 3 observations at T=3 (1.6M trees) are left out.
_MAX_TREES = 200_000


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


@settings(max_examples=200, **_DERANDOMIZED)
@given(random_domains(), st.integers(0, 2**32 - 1))
def test_flattened_values_match_the_joint_recursion(case, seed):
    """(a) and (b)."""
    domain, candidates = case
    model = flatten(domain, candidates).model
    solved = solve_exact(model)
    rng = np.random.default_rng(seed)
    subjects = [solved.tree] + [
        random_tree(rng, domain.actions_i, domain.observations_i, domain.horizon)
        for _ in range(3)
    ]
    for tree in subjects:
        want = _oracle_value(domain, candidates.trees, candidates.prior, tree)
        assert _close(evaluate_policy(model, tree), want, 1e-12)

    if count_trees(len(model.actions), len(model.observations), model.horizon) <= _MAX_TREES:
        brute = brute_force_solve(model, max_trees=_MAX_TREES)
        assert _close(solved.value, brute.value, 1e-8)
        if solved.tree != brute.tree:
            a, b = evaluate_policy(model, solved.tree), evaluate_policy(model, brute.tree)
            assert abs(a - b) <= TIE_TOL * max(1.0, abs(a))


@settings(max_examples=20, **_DERANDOMIZED)
@given(random_domains(), st.integers(0, 2**32 - 1))
def test_from_set_rounds_average_the_planned_value(case, seed):
    """(c): the simulator plays the raw domain, which the planner never sees."""
    domain, candidates = case
    rounds = 2_000
    stats = run_experiment(domain, candidates, "from-set", rounds=rounds, seed=seed)
    se = np.sqrt(stats.reward_variance_i / rounds)
    assert abs(stats.mean_reward_i - stats.policy_value) <= 5 * se + 1e-9
