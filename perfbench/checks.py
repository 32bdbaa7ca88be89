"""Checks of the pipeline's outputs, written apart from the program.

Each check returns a list of problems; an empty list means the outputs
passed.  The checks read the files the program wrote and recount or
recompute what they claim with code of their own: a preorder decoder for
tree encodings, a recount of both diversity measures, fraction-free integer
elimination for matrix rank, and an exact expectation over joint
trajectories for the planner's value.  They import nothing from ``ididiv``;
the domain and trees they are given are plain data.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

# --------------------------------------------------------------- trees ----


def decode_tree(text: str) -> tuple[int, tuple[str, ...], tuple]:
    """Parse ``depth;obs,obs;a|a|...`` with actions in preorder.

    Returns (depth, observation labels, tree) where a tree is
    ``(action, (child, ...))`` with one child per observation label.
    """
    depth_s, obs_s, body = text.split(";", 2)
    depth = int(depth_s)
    obs = tuple(obs_s.split(",")) if obs_s else ()
    actions = iter(body.split("|"))

    def build(level: int):
        a = next(actions)
        if level == depth:
            return (a, ())
        return (a, tuple(build(level + 1) for _ in obs))

    tree = build(1)
    if next(actions, None) is not None:
        raise ValueError("encoding %r has more actions than a depth-%d tree" % (text, depth))
    return depth, obs, tree


def node_count(tree) -> int:
    return 1 + sum(node_count(c) for c in tree[1])


def prefixes(tree, obs, t: int) -> set:
    """Length-t behaviour prefixes: a1, o1, a2, ..., a_t as flat tuples."""
    a, kids = tree
    if t == 1:
        return {(a,)}
    return {(a, o) + rest for o, c in zip(obs, kids) for rest in prefixes(c, obs, t - 1)}


def frame(tree, t: int):
    """The depth-t truncation of a tree."""
    a, kids = tree
    return (a, ()) if t == 1 else (a, tuple(frame(c, t - 1) for c in kids))


def recount_diversity(trees, obs, depth: int) -> dict:
    """Per-depth distinct prefixes and frames, and both measures."""
    n = len(obs)
    seq = [len(set().union(*(prefixes(tr, obs, t) for tr in trees))) for t in range(1, depth + 1)]
    frm = [len({frame(tr, t) for tr in trees}) for t in range(1, depth + 1)]
    return {
        "sequence_counts": seq,
        "frame_counts": frm,
        "mdp": sum(s / n ** (t - 1) for t, s in enumerate(seq, start=1)),
        "mdf": sum((s + f) / n ** (t - 1) for t, (s, f) in enumerate(zip(seq, frm), start=1)),
    }


# ---------------------------------------------------------------- rank ----


def exact_rank(rows) -> int:
    """Rank over the rationals of an integer matrix, by fraction-free elimination."""
    m = [[int(x) for x in r] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pr = next((k for k in range(rank, len(m)) if m[k][c] != 0), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        p = m[rank]
        for k in range(rank + 1, len(m)):
            f = m[k][c]
            if f:
                m[k] = [p[c] * x - f * y for x, y in zip(m[k], p)]
        rank += 1
        if rank == len(m):
            break
    return rank


# --------------------------------------------------------- grid outputs ----


def read_csv(path) -> list[dict]:
    return list(csv.DictReader(io.StringIO(Path(path).read_text())))


def check_grid(out_dir, expected_cells: int, horizon: int, reward_range) -> list[str]:
    """Rules every experiment grid's outputs must satisfy."""
    out = Path(out_dir)
    problems = []
    manifest = json.loads((out / "manifest.json").read_text())
    if manifest["errors"]:
        problems.append("manifest errors: %r" % manifest["errors"])
    results = read_csv(out / "results.csv")
    diversity = read_csv(out / "diversity.csv")
    for name, rows in (("results.csv", results), ("diversity.csv", diversity)):
        if len(rows) != expected_cells:
            problems.append("%s has %d rows for %d cells" % (name, len(rows), expected_cells))
    lo, hi = horizon * reward_range[0], horizon * reward_range[1]
    idid = {}
    for res, div in zip(results, diversity):
        key = (res["algorithm"], res["m"], res["k"], res["true_mode"], res["seed"])
        if key != (div["algorithm"], div["m"], div["k"], div["true_mode"], div["seed"]):
            problems.append("results.csv and diversity.csv rows differ at %r" % (key,))
            continue
        m, k, n = int(res["m"]), int(res["k"]), int(res["candidates"])
        if res["algorithm"] == "IDID":
            if n != m:
                problems.append("IDID row %r has %d candidates" % (key, n))
        elif not m <= n <= m + k:
            problems.append("row %r has %d candidates, outside [m, m + k]" % (key, n))
        if float(div["mdf"]) < float(div["mdp"]):
            problems.append("row %r has mdf < mdp" % (key,))
        if not lo <= float(res["mean_reward"]) <= hi:
            problems.append("row %r mean reward %s outside [%g, %g]" % (key, res["mean_reward"], lo, hi))
        if res["algorithm"] == "IDID":
            fixed = (n, div["mdp"], div["mdf"], res["policy_value"])
            first = idid.setdefault((m, res["true_mode"], res["seed"]), fixed)
            if first != fixed:
                problems.append("IDID row %r depends on k: %r vs %r" % (key, fixed, first))
    for div in diversity:
        base = idid.get((int(div["m"]), div["true_mode"], div["seed"]))
        if div["algorithm"] == "IDID" or base is None:
            continue
        if float(div["mdp"]) < float(base[1]) or float(div["mdf"]) < float(base[2]):
            problems.append(
                "%s at m=%s seed=%s is less diverse than IDID"
                % (div["algorithm"], div["m"], div["seed"])
            )
    return problems


def same_csvs(dir_a, dir_b, names=("results.csv", "diversity.csv")) -> list[str]:
    return [
        "%s differs between %s and %s" % (n, dir_a, dir_b)
        for n in names
        if (Path(dir_a) / n).read_bytes() != (Path(dir_b) / n).read_bytes()
    ]


# -------------------------------------------------------- top-K outputs ----


def check_topk(out_dir, depth: int, known: int, actions) -> list[str]:
    """candidates.json, diversity.csv, features.json and behavior_matrix.csv."""
    out = Path(out_dir)
    problems = []
    cs = json.loads((out / "candidates.json").read_text())
    decoded = [decode_tree(t) for t in cs["trees"]]
    obs = decoded[0][1]
    trees = [tr for _, _, tr in decoded]
    if len(set(cs["trees"])) != len(trees):
        problems.append("candidate trees are not distinct")
    complete = sum(len(obs) ** t for t in range(depth))
    for k, (d, o, tr) in enumerate(decoded):
        if d != depth or o != obs or node_count(tr) != complete:
            problems.append("tree %d is not a complete depth-%d tree" % (k, depth))

    def walk(tr):
        yield tr[0]
        for c in tr[1]:
            yield from walk(c)

    bad = {a for tr in trees for a in walk(tr)} - set(actions)
    if bad:
        problems.append("trees use unknown actions %r" % sorted(bad))
    prov = cs["provenance"]
    if prov != ["known"] * known + ["generated"] * (len(trees) - known):
        problems.append("known trees do not come first: %r" % prov)
    trace = cs["trace"]
    if any(b[1] <= a[1] or b[0] != a[0] + 1 for a, b in zip(trace, trace[1:])):
        problems.append("diversity trace does not rise strictly: %r" % trace)

    recount = recount_diversity(trees, obs, depth)
    lines = (out / "diversity.csv").read_text().splitlines()
    per_depth = [tuple(int(x) for x in ln.split(",")[1:3]) for ln in lines[1 : depth + 1]]
    if per_depth != list(zip(recount["sequence_counts"], recount["frame_counts"])):
        problems.append("per-depth counts %r, recounted %r" % (per_depth, recount))
    for ln in lines[depth + 1 :]:
        name, value = ln.split(",")[:2]
        if abs(float(value) - recount[name]) > 1e-9:
            problems.append("%s %s, recounted %r" % (name, value, recount[name]))

    header, *rows = csv.reader(io.StringIO((out / "behavior_matrix.csv").read_text()))
    columns = [tuple(c.split("/")) for c in header[1:]]
    matrix = [[int(x) for x in r[1:]] for r in rows]
    if len(matrix) != len(trees):
        problems.append("behavior matrix has %d rows for %d trees" % (len(matrix), len(trees)))
    for k, (row, tr) in enumerate(zip(matrix, trees)):
        if {col for col, x in zip(columns, row) if x} != prefixes(tr, obs, depth):
            problems.append("behavior matrix row %d is not tree %d's sequences" % (k, k))
    feats = json.loads((out / "features.json").read_text())
    rank = exact_rank(matrix)
    if rank != feats["rank"]:
        problems.append("rank %d, recomputed %d" % (feats["rank"], rank))
    piv = feats["pivot_indices"]
    if len(piv) != rank or exact_rank([[r[c] for c in piv] for r in matrix]) != rank:
        problems.append("pivot columns %r do not have rank %d" % (piv, rank))
    return problems


# ------------------------------------------------------- planner value ----


def _index(labels):
    return {x: k for k, x in enumerate(labels)}


def exact_value(domain, subject, peers, prior) -> float:
    """Expected total subject reward, by enumerating joint trajectories.

    ``subject`` and each peer are policy-tree objects with ``action`` and
    ``children`` of (observation label, subtree).  Probability mass over
    states is carried per pair of tree positions; pairs reached along
    different paths are merged, since what follows depends only on the two
    positions and the state.
    """
    ai_of, aj_of = _index(domain.actions_i), _index(domain.actions_j)
    oi_of, oj_of = _index(domain.observations_i), _index(domain.observations_j)
    n = len(domain.states)
    start = np.full(n, 1.0 / n) if domain.start is None else np.asarray(domain.start, float)
    value = 0.0
    for peer, p in zip(peers, prior):
        frontier = {(id(subject), id(peer)): (subject, peer, start * p)}
        for t in range(domain.horizon):
            nxt = {}
            for ni, nj, mass in frontier.values():
                ai, aj = ai_of[ni.action], aj_of[nj.action]
                value += float(mass @ domain.reward_i[:, ai, aj])
                if t + 1 == domain.horizon:
                    continue
                pred = mass @ domain.transition[:, ai, aj, :]
                for oi, ci in ni.children:
                    for oj, cj in nj.children:
                        w = pred * domain.obs_fn_i[:, ai, aj, oi_of[oi]] * domain.obs_fn_j[:, aj, oj_of[oj]]
                        key = (id(ci), id(cj))
                        if key in nxt:
                            nxt[key] = (ci, cj, nxt[key][2] + w)
                        else:
                            nxt[key] = (ci, cj, w)
            frontier = nxt
    return value


class _Node:
    """Minimal policy-tree node for constant-action subject trees."""

    def __init__(self, action, children=()):
        self.action = action
        self.children = children


def constant_tree(action, observations, depth):
    node = _Node(action)
    for _ in range(depth - 1):
        node = _Node(action, tuple((o, node) for o in observations))
    return node


def check_planner(domain, policy_value: float, subject, peers, prior) -> list[str]:
    """The solver's value equals the exact expectation and beats every constant policy."""
    problems = []
    exact = exact_value(domain, subject, peers, prior)
    tol = 1e-9 * max(1.0, abs(exact))
    if abs(policy_value - exact) > tol:
        problems.append("planner value %r, exact expectation %r" % (policy_value, exact))
    for a in domain.actions_i:
        v = exact_value(domain, constant_tree(a, domain.observations_i, domain.horizon), peers, prior)
        if v > policy_value + tol:
            problems.append("constant %s policy is worth %r > planner %r" % (a, v, policy_value))
    return problems
