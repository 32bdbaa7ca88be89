"""The benchmark's own checks, on small cases worked out by hand."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

import checks
from checks import _Node as Node


# ----------------------------------------------------------------- trees ----

def test_decode_reads_preorder_not_breadth_first():
    # Preorder: root, then the whole first subtree, then the second.
    depth, obs, tree = checks.decode_tree("3;a,b;X|Y|P|Q|Z|R|S")
    assert (depth, obs) == (3, ("a", "b"))
    leaf = lambda x: (x, ())
    assert tree == ("X", (("Y", (leaf("P"), leaf("Q"))), ("Z", (leaf("R"), leaf("S")))))


def test_decode_rejects_extra_actions():
    with pytest.raises(ValueError):
        checks.decode_tree("2;a,b;X|Y|Z|W")


TWO_TREES = [
    checks.decode_tree("2;o1,o2;A|A|B")[2],  # A, then A after o1, B after o2
    checks.decode_tree("2;o1,o2;A|B|B")[2],  # A, then B after either
]


def test_recount_diversity_by_hand():
    # Depth 1: one prefix (A), one frame.  Depth 2: prefixes A/o1/A, A/o2/B,
    # A/o1/B and two distinct trees.  Depth 2 is scaled by 1/2.
    r = checks.recount_diversity(TWO_TREES, ("o1", "o2"), 2)
    assert r["sequence_counts"] == [1, 3]
    assert r["frame_counts"] == [1, 2]
    assert r["mdp"] == 1 + 3 / 2
    assert r["mdf"] == (1 + 1) + (3 + 2) / 2


@pytest.mark.parametrize(
    "rows, rank",
    [
        ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 3),  # determinant 2
        ([[1, 1, 0], [0, 1, 1], [1, 2, 1]], 2),  # third = first + second
        ([[2, 4], [1, 2]], 1),
        ([[0, 0], [0, 0]], 0),
        ([[0, 1, 0, 1]], 1),
    ],
)
def test_exact_rank(rows, rank):
    assert checks.exact_rank(rows) == rank


# ------------------------------------------------------------ planner ----

def _noisy_guess_domain():
    """Two hidden states, one peer action; the subject hears the state with 0.8.

    Guessing the state right pays 1, waiting pays 0.  Waiting once and then
    guessing what was heard is worth 0.5 * 0.8 + 0.5 * 0.8 = 0.8; guessing
    "L" twice blindly is worth 0.5 + 0.5 = 1.0.
    """
    S, Ai, Aj = 2, 3, 1
    T = np.zeros((S, Ai, Aj, S))
    T[0, :, :, 0] = T[1, :, :, 1] = 1.0
    Oi = np.zeros((S, Ai, Aj, 2))
    Oi[0, :, :, :] = [0.8, 0.2]
    Oi[1, :, :, :] = [0.2, 0.8]
    Ri = np.zeros((S, Ai, Aj))
    Ri[0, 0, :] = Ri[1, 1, :] = 1.0
    return SimpleNamespace(
        states=("L", "R"), actions_i=("gL", "gR", "wait"), actions_j=("x",),
        observations_i=("hL", "hR"), observations_j=("z",), horizon=2,
        start=np.array([0.5, 0.5]), transition=T, obs_fn_i=Oi,
        obs_fn_j=np.ones((S, Aj, 1)), reward_i=Ri,
    )


def test_exact_value_by_hand():
    d = _noisy_guess_domain()
    peer = checks.constant_tree("x", ("z",), 2)
    listen = Node("wait", (("hL", Node("gL")), ("hR", Node("gR"))))
    assert checks.exact_value(d, listen, [peer], [1.0]) == pytest.approx(0.8, abs=1e-15)
    blind = checks.constant_tree("gL", d.observations_i, 2)
    assert checks.exact_value(d, blind, [peer], [1.0]) == pytest.approx(1.0, abs=1e-15)


def test_exact_value_weights_peers_by_prior():
    # One step; the subject earns 2 against peer action x and 0 against y.
    d = SimpleNamespace(
        states=("s",), actions_i=("a",), actions_j=("x", "y"),
        observations_i=("o",), observations_j=("z",), horizon=1, start=None,
        transition=np.ones((1, 1, 2, 1)), obs_fn_i=np.ones((1, 1, 2, 1)),
        obs_fn_j=np.ones((1, 2, 1)), reward_i=np.array([[[2.0, 0.0]]]),
    )
    value = checks.exact_value(d, Node("a"), [Node("x"), Node("y")], [0.25, 0.75])
    assert value == 0.5


def test_check_planner_flags_wrong_value_and_beaten_policy():
    d = _noisy_guess_domain()
    peer = [checks.constant_tree("x", ("z",), 2)]
    listen = Node("wait", (("hL", Node("gL")), ("hR", Node("gR"))))
    problems = checks.check_planner(d, 0.8, listen, peer, [1.0])
    # 0.8 is the listening tree's true value, but blind guessing (1.0) beats it.
    assert [p.split(" policy")[0] for p in problems] == ["constant gL", "constant gR"]
    blind = checks.constant_tree("gL", d.observations_i, 2)
    assert checks.check_planner(d, 1.0, blind, peer, [1.0]) == []
    assert "exact expectation" in checks.check_planner(d, 1.25, blind, peer, [1.0])[0]


# ---------------------------------------------------------------- grids ----

RESULTS_HEAD = "domain,algorithm,horizon,m,k,true_mode,seed,rounds,candidates,mean_reward,reward_variance,policy_value"
DIVERSITY_HEAD = "domain,algorithm,horizon,m,k,true_mode,seed,candidates,mdp,mdf,mean_reward"
GOOD_ROWS = [
    # algorithm, candidates, mdp, mdf, mean_reward, policy_value
    ("IDID", 2, 2.5, 4.5, -3.0, -2.0),
    ("IDID-MDP", 3, 3.0, 5.0, -1.0, -1.5),
    ("IDID-MDF", 3, 2.5, 5.5, 4.0, -1.0),
]


def _write_grid(path, rows, errors=()):
    path.mkdir()
    res, div = [RESULTS_HEAD], [DIVERSITY_HEAD]
    for alg, n, mdp, mdf, mean, value in rows:
        res.append("tiger,%s,3,2,1,from-set,0,50,%d,%r,1.0,%r" % (alg, n, mean, value))
        div.append("tiger,%s,3,2,1,from-set,0,%d,%r,%r,%r" % (alg, n, mdp, mdf, mean))
    (path / "results.csv").write_text("\n".join(res) + "\n")
    (path / "diversity.csv").write_text("\n".join(div) + "\n")
    (path / "manifest.json").write_text(json.dumps({"errors": list(errors)}))
    return path


def test_check_grid_accepts_good_outputs(tmp_path):
    out = _write_grid(tmp_path / "g", GOOD_ROWS)
    assert checks.check_grid(out, 3, 3, (-100.0, 10.0)) == []


@pytest.mark.parametrize(
    "row, cells, errors, words",
    [
        (None, 4, (), "rows for 4 cells"),
        (None, 3, ({"cell": "c", "error": "boom"},), "manifest errors"),
        (("IDID", 3, 2.5, 4.5, -3.0, -2.0), 3, (), "IDID row"),
        (("IDID-MDP", 4, 3.0, 5.0, -1.0, -1.5), 3, (), "outside [m, m + k]"),
        (("IDID-MDP", 3, 3.0, 2.9, -1.0, -1.5), 3, (), "mdf < mdp"),
        (("IDID-MDP", 3, 2.0, 5.0, -1.0, -1.5), 3, (), "less diverse than IDID"),
        (("IDID-MDP", 3, 3.0, 5.0, 31.0, -1.5), 3, (), "outside [-300, 30]"),
    ],
)
def test_check_grid_flags(tmp_path, row, cells, errors, words):
    rows = list(GOOD_ROWS)
    if row is not None:
        rows[[r[0] for r in rows].index(row[0])] = row
    out = _write_grid(tmp_path / "g", rows, errors)
    problems = checks.check_grid(out, cells, 3, (-100.0, 10.0))
    assert any(words in p for p in problems), problems


def test_check_grid_flags_idid_depending_on_k(tmp_path):
    out = _write_grid(tmp_path / "g", GOOD_ROWS)
    res = (out / "results.csv").read_text().splitlines()
    div = (out / "diversity.csv").read_text().splitlines()
    res.append(res[1].replace(",2,1,from-set", ",2,3,from-set").replace(",-2.0", ",-2.5"))
    div.append(div[1].replace(",2,1,from-set", ",2,3,from-set"))
    (out / "results.csv").write_text("\n".join(res) + "\n")
    (out / "diversity.csv").write_text("\n".join(div) + "\n")
    problems = checks.check_grid(out, 4, 3, (-100.0, 10.0))
    assert any("depends on k" in p for p in problems), problems


# ---------------------------------------------------------------- top-K ----

def _write_topk(path, rank=2, trace=((1, 3.0), (2, 4.5)), pivots=(0, 1)):
    path.mkdir()
    (path / "candidates.json").write_text(json.dumps({
        "trees": ["2;o1,o2;A|A|B", "2;o1,o2;A|B|B"],
        "provenance": ["known", "generated"],
        "trace": [list(t) for t in trace],
    }))
    (path / "diversity.csv").write_text(
        "depth,distinct_prefixes,distinct_frames\n1,1,1\n2,3,2\nmdp,2.5,\nmdf,4.5,\n"
    )
    (path / "behavior_matrix.csv").write_text(
        "tree,A/o1/A,A/o2/B,A/o1/B\ntree1,1,1,0\ntree2,0,1,1\n"
    )
    (path / "features.json").write_text(json.dumps({"rank": rank, "pivot_indices": list(pivots)}))
    return path


def test_check_topk_accepts_hand_worked_output(tmp_path):
    out = _write_topk(tmp_path / "t")
    assert checks.check_topk(out, 2, 1, ("A", "B")) == []


def test_check_topk_flags(tmp_path):
    out = _write_topk(tmp_path / "t", rank=1, trace=((1, 3.0), (2, 3.0)), pivots=(1,))
    problems = checks.check_topk(out, 2, 1, ("A",))
    for words in ("rank 1, recomputed 2", "does not rise", "unknown actions", "do not have rank 2"):
        assert any(words in p for p in problems), (words, problems)
    assert any("known trees do not come first" in p for p in checks.check_topk(out, 2, 2, ("A", "B")))
