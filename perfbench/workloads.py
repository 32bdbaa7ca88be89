"""The three workloads: their fixed items, their set-up and their checks.

An item is one seed of the pipeline, run end to end.  Every run walks the
same fixed list of items in the same order, because an item's cost varies
several-fold with its seed (tiger grid items took 2.1-9.6 s over seeds
0-11 on a 2.0 GHz Xeon vCPU), so a list that changed with the run's seed
would move the medians.
The run's ``--seed`` instead chooses the inputs of the checks made outside
the timing: which item is replayed from its manifest, and the candidate
sets on which the planner's value is checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import checks


@dataclass(frozen=True)
class Workload:
    name: str
    domain: str
    horizon: int
    items: tuple[int, ...]
    grid: dict = field(default_factory=dict)
    # (known models, expansion) of the candidate sets the planner is checked on.
    planner: tuple[int, int] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tiger-oos-grid",
            domain="tiger",
            horizon=3,
            items=(0, 1, 2, 3),
            grid={
                "domain": "tiger",
                "horizons": [3],
                "model_counts": [4, 6],
                "expansions": [1, 3],
                "algorithms": ["IDID", "IDID-MDP", "IDID-MDF"],
                "true_modes": ["random-generated"],
                "rounds": 50,
            },
            planner=(4, 3),
        ),
        Workload(
            name="uav-plan-grid",
            domain="uav",
            horizon=3,
            items=(0, 1, 2, 3, 4),
            grid={
                "domain": "uav",
                "horizons": [3],
                "model_counts": [3],
                "expansions": [3],
                "algorithms": ["IDID", "IDID-MDP", "IDID-MDF"],
                "true_modes": ["from-set"],
                "rounds": 50,
            },
            planner=(3, 3),
        ),
        Workload(
            name="uav-topk-features",
            domain="uav",
            horizon=4,
            items=(0, 1, 2),
        ),
    )
}

TOPK_KNOWN = 3
TOPK_K_MAX = 30
MEASURES = ("MDP", "MDF")


def setup(wl: Workload):
    """What a user pays before the first item: import, domain, level-0 view."""
    import ididiv

    if not wl.grid:
        import ididiv.cli  # noqa: F401  the top-K items run through the command line
    domain = ididiv.builtin_domain(wl.domain, wl.horizon)
    return domain, ididiv.project_level0(domain, "j")


def _cells(wl: Workload) -> int:
    g = wl.grid
    return len(g["model_counts"]) * len(g["expansions"]) * len(g["algorithms"]) * len(g["true_modes"])


def _topk_argv(seed: int, out: Path, measure: str) -> list[list[str]]:
    head = ["--domain", "uav", "--seed", str(seed), "--out-dir", str(out)]
    return [
        head + ["topk", "--measure", measure, "--known", str(TOPK_KNOWN),
                "--k-max", str(TOPK_K_MAX), "--horizon", "4"],
        head + ["features", "--trees", str(out / "candidates.json")],
    ]


def run_item(wl: Workload, seed: int, out: Path) -> bool:
    """One item; True when the program reports no failure.

    Functions are looked up on their modules at call time so that the
    traced run's wrappers are the ones called.
    """
    if wl.grid:
        from ididiv import runs

        manifest = runs.run_experiment_grid(dict(wl.grid, seeds=[seed]), out, workers=1)
        return not manifest.errors
    from ididiv import cli

    ok = True
    for measure in MEASURES:
        for argv in _topk_argv(seed, out / measure, measure):
            ok = cli.main(argv) == 0 and ok
    return ok


def check_item(wl: Workload, domain, out: Path) -> list[str]:
    if wl.grid:
        r = domain.reward_i
        return checks.check_grid(out, _cells(wl), wl.horizon, (float(r.min()), float(r.max())))
    return [
        p
        for measure in MEASURES
        for p in checks.check_topk(out / measure, wl.horizon, TOPK_KNOWN, domain.actions_j)
    ]


def check_run(wl: Workload, domain, level0, seed: int, outputs: dict, scratch: Path) -> list[str]:
    """Checks chosen by the run's seed: a replay and the planner's value."""
    if not wl.grid:
        return []
    from ididiv import (
        SelectionConfig, flatten, generate_known_models, make_candidate_set,
        run_from_manifest, select_topk, solve_idid,
    )

    problems = []
    item = wl.items[seed % len(wl.items)]
    if item in outputs:
        replay = scratch / ("replay-%d" % item)
        run_from_manifest(outputs[item] / "manifest.json", replay)
        problems += checks.same_csvs(outputs[item], replay)

    m, k = wl.planner
    known = generate_known_models(level0, m, seed=seed)
    for cs in (
        make_candidate_set(known, len(level0.observations)),
        select_topk(known, level0, SelectionConfig(measure="MDF", k_max=m + k, seed=seed)),
    ):
        pol = solve_idid(flatten(domain, cs))
        problems += checks.check_planner(domain, pol.value, pol.tree, cs.trees, cs.prior)
    return problems
