"""End-to-end acceptance checks, one printed verdict line per criterion.

Each test prints "ACCEPTANCE <n> <name>: PASS/FAIL (<detail>)" so a full run
reads as a checklist, then asserts.  Tolerances and runtime budgets are part
of the checks.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sps

from ididiv import (
    BehaviorMatrix,
    BehaviorSequence,
    SelectionConfig,
    all_trees,
    brute_force_solve,
    builtin_domain,
    canonical_encode,
    constant_tree,
    diversity_report,
    evaluate_policy,
    flatten,
    generate_known_models,
    make_candidate_set,
    mdf,
    mdp,
    pivot_decompose,
    project_level0,
    run_experiment_grid,
    run_from_manifest,
    select_topk,
    solve_exact,
    solve_idid,
)
from ididiv.runs import ALGORITHMS, file_sha256, run_cell
from conftest import _det_model_2a, random_model, random_tree_set


def _verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(
            "\nACCEPTANCE %d %s: %s (%s)"
            % (num, name, "PASS" if ok else "FAIL", detail)
        )
    return ok


def _dummy_columns(n):
    return tuple(BehaviorSequence(("c%d" % k,), ()) for k in range(n))


def _exact_product(piv, shape):
    out = [[Fraction(0)] * shape[1] for _ in range(shape[0])]
    for i in range(shape[0]):
        for k in range(piv.rank):
            f = int(piv.f_matrix[i, k])
            if f:
                for c in range(shape[1]):
                    out[i][c] += f * piv.u_matrix[k][c]
    return out


def test_criterion_1_worked_example(fig_trees, capsys):
    t0 = time.perf_counter()
    report = diversity_report(fig_trees, 2)
    seqs, frames = report.sequence_counts, report.frame_counts
    v_mdp = mdp(fig_trees, 2)
    v_mdf = mdf(fig_trees, 2)
    elapsed = time.perf_counter() - t0
    ok = (
        seqs == (2, 5, 12)
        and frames == (2, 3, 4)
        and v_mdp == 7.5
        and v_mdf == 12.0
        and elapsed < 1.0
    )
    assert _verdict(
        capsys, 1, "worked-example diversity",
        ok, "counts %s/%s mdp=%r mdf=%r %.3fs" % (seqs, frames, v_mdp, v_mdf, elapsed),
    )


def test_criterion_2_exact_factorization(capsys):
    t0 = time.perf_counter()
    entries = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 1]], dtype=np.uint8)
    piv = pivot_decompose(
        BehaviorMatrix(("h1", "h2", "h3"), _dummy_columns(3), entries)
    )
    ident = tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(3)) for i in range(3)
    )
    ok = (
        piv.rank == 3
        and piv.u_matrix == ident
        and piv.f_matrix.tolist() == entries.tolist()
        and _exact_product(piv, entries.shape)
        == [[Fraction(int(x)) for x in row] for row in entries]
    )

    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(1000):
        r = int(rng.integers(1, 9))
        c = int(rng.integers(1, 65))
        p = rng.integers(0, 2, size=(r, c)).astype(np.uint8)
        piv = pivot_decompose(
            BehaviorMatrix(
                tuple("h%d" % i for i in range(r)), _dummy_columns(c), p
            )
        )
        if piv.rank != np.linalg.matrix_rank(p.astype(float)):
            break
        if _exact_product(piv, p.shape) != [
            [Fraction(int(x)) for x in row] for row in p
        ]:
            break
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and checked == 1000 and elapsed < 10.0
    assert _verdict(
        capsys, 2, "exact factorization",
        ok, "%d/1000 random matrices, %.2fs" % (checked, elapsed),
    )


def test_criterion_3_solver_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    agreed = 0
    for _ in range(120):
        m = random_model(rng)
        a = solve_exact(m)
        b = brute_force_solve(m)
        if abs(a.value - b.value) > 1e-9:
            break
        if canonical_encode(a.tree) != canonical_encode(b.tree):
            break
        agreed += 1

    j2 = project_level0(builtin_domain("tiger", 2), "j")
    n_trees = len(list(all_trees(j2.actions, j2.observations, 2)))
    a = solve_exact(j2)
    b = brute_force_solve(j2)
    tiger_ok = (
        n_trees == 27
        and abs(a.value - b.value) <= 1e-9
        and canonical_encode(a.tree) == canonical_encode(b.tree)
    )
    elapsed = time.perf_counter() - t0
    ok = agreed == 120 and tiger_ok and elapsed < 30.0
    assert _verdict(
        capsys, 3, "solver equals brute force",
        ok, "%d/120 random models, tiger %d trees, %.2fs" % (agreed, n_trees, elapsed),
    )


def test_criterion_4_diversity_invariants(capsys):
    rng = np.random.default_rng(4)
    violations = 0
    for _ in range(1000):
        trees, _, obs = random_tree_set(rng)
        n = len(obs)
        v_mdp = mdp(trees, n)
        v_mdf = mdf(trees, n)
        if v_mdf < v_mdp:
            violations += 1
            continue
        perm = [trees[i] for i in rng.permutation(len(trees))]
        if mdp(perm, n) != v_mdp or mdf(perm, n) != v_mdf:
            violations += 1
            continue
        grows = all(
            mdp(trees[:i], n) <= mdp(trees[: i + 1], n)
            and mdf(trees[:i], n) <= mdf(trees[: i + 1], n)
            for i in range(1, len(trees))
        )
        if not grows:
            violations += 1
            continue
        report = diversity_report(trees, n)
        if report.sequence_counts[0] != report.frame_counts[0]:
            violations += 1
    ok = violations == 0
    assert _verdict(
        capsys, 4, "diversity invariants",
        ok, "%d violations in 1000 sets" % violations,
    )


def test_criterion_5_selection_contract(capsys):
    j2 = project_level0(builtin_domain("tiger", 2), "j")
    violations = 0
    runs = 0
    for seed in range(100):
        for measure in ("MDP", "MDF"):
            known = generate_known_models(j2, 1 + seed % 2, seed=seed)
            cfg = SelectionConfig(
                measure=measure, k_max=len(known) + 3, patience=10, seed=seed
            )
            a = select_topk(known, j2, cfg)
            b = select_topk(known, j2, cfg)
            runs += 1
            enc = [canonical_encode(t) for t in a.trees]
            if a.trees[: len(known)] != tuple(known):
                violations += 1
                continue
            vals = [v for _, v in a.trace]
            if any(y <= x for x, y in zip(vals, vals[1:])):
                violations += 1
                continue
            if enc != [canonical_encode(t) for t in b.trees]:
                violations += 1

    base = _det_model_2a()
    one = base.replace(
        actions=("a0",),
        transition=base.transition[:, :1],
        obs_fn=base.obs_fn[:, :1],
        reward=base.reward[:, :1],
    )
    lone = [constant_tree("a0", one.observations, one.horizon)]
    cs = select_topk(lone, one, SelectionConfig(seed=0, k_max=5, patience=5))
    degenerate_ok = cs.trees == tuple(lone)
    ok = violations == 0 and runs == 200 and degenerate_ok
    assert _verdict(
        capsys, 5, "selection contract",
        ok, "%d violations in %d runs, degenerate adds none: %s"
        % (violations, runs, degenerate_ok),
    )


def test_criterion_6_flattening_algebra(tiger, tiger_j, capsys):
    known = generate_known_models(tiger_j, 4, seed=2)
    sel = select_topk(known, tiger_j, SelectionConfig(seed=2, k_max=6))
    trees = list(sel.trees)
    n = len(trees)
    rng = np.random.default_rng(6)
    prior = rng.dirichlet(np.ones(n))

    base = make_candidate_set(trees, 2, prior=prior)
    flat = flatten(tiger, base)
    solved = solve_idid(flat)
    mix_val = evaluate_policy(flat.model, solved.tree)
    point_vals = []
    for m in range(n):
        e = np.zeros(n)
        e[m] = 1.0
        fm = flatten(tiger, make_candidate_set(trees, 2, prior=e))
        point_vals.append(evaluate_policy(fm.model, solved.tree))
    lin_err = abs(mix_val - float(prior @ np.asarray(point_vals)))

    extra = next(
        t
        for a in tiger_j.actions
        for t in [constant_tree(a, tiger_j.observations, 3)]
        if canonical_encode(t) not in {canonical_encode(x) for x in trees}
    )
    aug = make_candidate_set(trees + [extra], 2, prior=np.append(prior, 0.0))
    solved_aug = solve_idid(flatten(tiger, aug))
    zero_ok = (
        abs(solved_aug.value - solved.value) <= 1e-9
        and canonical_encode(solved_aug.tree) == canonical_encode(solved.tree)
    )

    point_ok = True
    for m in (0, n - 1):
        e = np.zeros(n)
        e[m] = 1.0
        s1 = solve_idid(flatten(tiger, make_candidate_set(trees, 2, prior=e)))
        s2 = solve_idid(flatten(tiger, make_candidate_set([trees[m]], 2)))
        if abs(s1.value - s2.value) > 1e-9 or canonical_encode(
            s1.tree
        ) != canonical_encode(s2.tree):
            point_ok = False

    ok = lin_err <= 1e-9 and zero_ok and point_ok
    assert _verdict(
        capsys, 6, "flattening algebra",
        ok, "%d candidates, linearity err %.1e, zero-prior %s, point-mass %s"
        % (n, lin_err, zero_ok, point_ok),
    )


@pytest.fixture(scope="module")
def trend_rows():
    t0 = time.perf_counter()
    rows = {}
    domain = builtin_domain("tiger", 3)

    def cell(m, k, alg, seed):
        return {
            "domain": "tiger", "horizon": 3, "m": m, "k": k,
            "true_mode": "random-generated", "algorithm": alg,
            "seed": seed, "rounds": 50, "patience": 20,
        }

    for m, k in ((4, 1), (4, 3), (6, 1), (6, 3)):
        for alg in ALGORITHMS:
            for seed in range(25):
                rows[(m, k, alg, seed)] = run_cell(cell(m, k, alg, seed), domain)
    for alg in ("IDID", "IDID-MDF"):
        for seed in range(25, 30):
            rows[(6, 3, alg, seed)] = run_cell(cell(6, 3, alg, seed), domain)
    return rows, time.perf_counter() - t0


def test_criterion_7_interaction_trend(trend_rows, capsys):
    rows, elapsed = trend_rows

    # (a) Against shared out-of-set true models, the frame-diversified set
    # must not earn less on average, and a paired one-sided test must not
    # find it significantly worse.
    base = np.array(
        [rows[(6, 3, "IDID", s)]["mean_reward"] for s in range(30)]
    )
    div = np.array(
        [rows[(6, 3, "IDID-MDF", s)]["mean_reward"] for s in range(30)]
    )
    p_less = sps.ttest_rel(div, base, alternative="less").pvalue
    means_ok = div.mean() >= base.mean()
    reward_ok = means_ok if math.isnan(p_less) else means_ok and p_less >= 0.05

    # (b) Within each grid setting, rank the three algorithms by candidate
    # diversity and by realized reward, both measures; the mean correlation
    # over settings must be non-negative.
    rhos = []
    for m, k in ((4, 1), (4, 3), (6, 1), (6, 3)):
        for measure in ("mdp", "mdf"):
            xs, ys = [], []
            for alg in ALGORITHMS:
                sub = [rows[(m, k, alg, s)] for s in range(25)]
                xs.append(np.mean([r[measure] for r in sub]))
                ys.append(np.mean([r["mean_reward"] for r in sub]))
            rho = sps.spearmanr(xs, ys).statistic
            if not math.isnan(rho):
                rhos.append(rho)
    corr_ok = len(rhos) > 0 and float(np.mean(rhos)) >= 0.0

    ok = reward_ok and corr_ok and elapsed < 600.0
    assert _verdict(
        capsys, 7, "interaction trend",
        ok, "reward %.3f vs %.3f (p=%.3f), mean rho %.3f over %d settings, %.0fs"
        % (div.mean(), base.mean(), p_less, float(np.mean(rhos)), len(rhos), elapsed),
    )


def test_criterion_8_selection_timing(tiger_j, capsys):
    def best_elapsed(m, measure):
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            known = generate_known_models(tiger_j, m, seed=0)
            select_topk(
                known,
                tiger_j,
                SelectionConfig(measure=measure, k_max=m + 3, patience=20, seed=0),
            )
            best = min(best, time.perf_counter() - t0)
        return best

    t3 = {measure: best_elapsed(3, measure) for measure in ("MDP", "MDF")}
    ratios = [best_elapsed(m, "MDF") / best_elapsed(m, "MDP") for m in (3, 4, 5)]
    ok = all(v < 10.0 for v in t3.values()) and all(r <= 3.0 for r in ratios)
    assert _verdict(
        capsys, 8, "selection timing",
        ok, "M=3 %.2fs/%.2fs, ratios %s"
        % (t3["MDP"], t3["MDF"], ",".join("%.2f" % r for r in ratios)),
    )


def test_criterion_9_manifest_reproducibility(tmp_path, capsys):
    config = {
        "domain": "tiger",
        "horizons": [2],
        "model_counts": [2],
        "expansions": [1],
        "algorithms": list(ALGORITHMS),
        "true_modes": ["from-set", "random-generated"],
        "rounds": 3,
        "seeds": [0, 1],
    }
    first = run_experiment_grid(config, tmp_path / "a")
    rerun = run_from_manifest(tmp_path / "a" / "manifest.json", tmp_path / "b")
    same = all(
        file_sha256(tmp_path / "a" / f) == file_sha256(tmp_path / "b" / f)
        for f in ("results.csv", "diversity.csv")
    )
    ok = same and not first.errors and not rerun.errors
    assert _verdict(
        capsys, 9, "manifest reproducibility",
        ok, "12 cells, byte-identical: %s" % same,
    )
