"""Planning against a candidate set and playing repeated rounds.

Flattening folds (candidate model, tree position, physical state) into one
exactly solvable planning problem for the subject.  The interaction loop then
plays the solved policy against a true peer model drawn either from the
candidate prior or generated outside the set.
"""

import numpy as np

from ididiv import (
    SelectionConfig,
    builtin_domain,
    canonical_encode,
    flatten,
    generate_known_models,
    project_level0,
    run_experiment,
    select_topk,
    solve_idid,
)

domain = builtin_domain("tiger", 3)
level0 = project_level0(domain, "j")
known = generate_known_models(level0, 3, seed=0)
candidates = select_topk(
    known, level0, SelectionConfig(measure="MDF", k_max=6, patience=20, seed=0)
)

flat = flatten(domain, candidates)
print(
    "augmented model: %d candidate trees -> %d states"
    % (len(candidates.trees), len(flat.model.states))
)
policy = solve_idid(flat)
print("planned value against the candidate prior: %.4f" % policy.value)
print("subject policy:", canonical_encode(policy.tree))
print()

stats = run_experiment(domain, candidates, true_mode="from-set", rounds=50, seed=0)
print(
    "true model from the set:     mean reward %7.3f (variance %.1f)"
    % (stats.mean_reward_i, stats.reward_variance_i)
)

stats = run_experiment(
    domain, candidates, true_mode="random-generated", rounds=50, seed=0
)
print(
    "true model outside the set:  mean reward %7.3f (variance %.1f)"
    % (stats.mean_reward_i, stats.reward_variance_i)
)
