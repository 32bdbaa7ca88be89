"""Command-line front end.

Global flags pick the domain, seed, output directory, and worker count;
subcommands cover the pipeline stages: solve a level-0 model, extract
features from a tree set, build a diverse candidate set, solve the
flattened planning problem, simulate interactions, and run batch
experiment grids.  Every subcommand writes a manifest.json naming its
outputs; `experiment --from-manifest` replays a recorded run.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

# builtin_domain, file_sha256 and load_candidate_set are unused here;
# perfbench/tracer.py binds them in cli.
from .domains import BUILTIN_DOMAINS, builtin_domain, project_level0  # noqa: F401
from .features import build_matrix, matrix_to_csv, pivot_decompose
from .flattening import flatten, solve_idid
from .generation import generate_known_models
from .runs import (  # noqa: F401
    RunManifest,
    file_sha256,
    normalize_grid_config,
    resolve_domain,
    run_experiment_grid,
    run_from_manifest,
    write_manifest,
)
from .selection import (  # noqa: F401
    SelectionConfig,
    candidate_set_from_obj,
    load_candidate_set,
    save_candidate_set,
    select_topk,
)
from .simulate import EPISODE_COLUMNS, MAX_ROUNDS, TRUE_MODES, episode_rows, run_experiment
from .solver import solve_exact
from .trees import _count, _csv_line, _json_text, _read_input, canonical_encode
from .diversity import report_to_csv

__all__ = [
    "main",
    "cmd_solve",
    "cmd_features",
    "cmd_topk",
    "cmd_solve_idid",
    "cmd_simulate",
    "cmd_experiment",
]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ididiv",
        description="Diverse peer-model planning toolkit",
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument("--out-dir", default="out", help="output directory")
    parser.add_argument("--workers", type=int, default=1, help="parallel grid workers")
    parser.add_argument(
        "--domain",
        default="tiger",
        help="builtin domain name (%s) or path to a domain JSON file"
        % ", ".join(sorted(BUILTIN_DOMAINS)),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The subcommands that read the domain read it at --horizon.
    at_horizon = argparse.ArgumentParser(add_help=False)
    at_horizon.add_argument("--horizon", type=int, default=None)

    p = sub.add_parser("solve", parents=[at_horizon], help="solve a level-0 model exactly")
    p.add_argument("--agent", choices=["i", "j"], default="j")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("features", help="behavior matrix and pivot features")
    p.add_argument("--trees", required=True, help="candidate set JSON file")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("topk", parents=[at_horizon], help="build a diverse candidate model set")
    p.add_argument("--measure", choices=["MDP", "MDF"], default="MDF")
    p.add_argument("--known", type=int, default=3, help="known model count M")
    p.add_argument("--k-max", type=int, default=6, help="candidate set size cap")
    p.add_argument("--patience", type=int, default=20)
    p.set_defaults(func=cmd_topk)

    p = sub.add_parser(
        "solve-idid", parents=[at_horizon], help="solve the flattened planning problem"
    )
    p.add_argument("--candidates", required=True, help="candidate set JSON file")
    p.set_defaults(func=cmd_solve_idid)

    p = sub.add_parser("simulate", parents=[at_horizon], help="play repeated interaction rounds")
    p.add_argument("--candidates", required=True, help="candidate set JSON file")
    p.add_argument("--rounds", type=int, default=50)
    p.add_argument("--true-mode", choices=list(TRUE_MODES), default="from-set")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("experiment", help="run a batch experiment grid")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--config", default=None, help="grid config JSON file")
    source.add_argument("--from-manifest", default=None, help="rerun a recorded manifest")
    p.set_defaults(func=cmd_experiment)

    return parser


def _inputs(args):
    """The subcommand's domain, at --horizon when it has that flag, and its
    candidate set, named by --trees or --candidates, each None without the
    flag; the SHA-256 of each file parsed, keyed by its flag's name; and the
    output directory, made only once every input has been read."""
    domain = cs = None
    hashes = {}
    if "horizon" in args:
        by_horizon, hashes = resolve_domain(args.domain, [args.horizon])
        domain = by_horizon[args.horizon]
    for flag in ("trees", "candidates"):
        if flag in args:
            cs, hashes[flag] = _read_input(getattr(args, flag), candidate_set_from_obj)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return domain, cs, hashes, out


def _write_json(path: Path, obj) -> None:
    path.write_text(_json_text(obj))


def _write_policy(path: Path, model, pol, **extra) -> None:
    head = {"model": model.name, "horizon": model.horizon, "value": pol.value}
    _write_json(path, {**head, "tree": canonical_encode(pol.tree), **extra})


# Flags that every subcommand has, or that argparse adds; a manifest's
# config holds the subcommand's own flags.
_GLOBAL_FLAGS = ("seed", "out_dir", "workers", "domain", "command", "func")


def _record(args, domain, outputs: dict, input_hashes: dict, timings=None) -> None:
    """Write the subcommand's manifest.json into its output directory.

    Its config is the subcommand's own flags, plus, when it read ``domain``,
    the --domain value and the horizon the run used.  ``input_hashes`` maps
    each input's name to the SHA-256 taken when it was read, before the run;
    ``outputs`` maps names to the paths written.
    """
    config = {k: v for k, v in vars(args).items() if k not in _GLOBAL_FLAGS}
    if domain is not None:
        config.update(domain=args.domain, horizon=domain.horizon)
    manifest = RunManifest(
        command=args.command,
        config=config,
        seed=args.seed,
        input_hashes=input_hashes,
        outputs={name: Path(path).name for name, path in outputs.items()},
        timings=timings or {},
    )
    write_manifest(manifest, args.out_dir)


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    domain, _, hashes, out = _inputs(args)
    model = project_level0(domain, args.agent)
    pol = solve_exact(model)
    elapsed = time.perf_counter() - t0

    path = out / ("policy_%s.json" % args.agent)
    _write_policy(path, model, pol, agent=args.agent)
    _record(args, domain, {"policy": path}, hashes, {"solve_seconds": elapsed})
    print("solved %s (T=%d): value %.6f -> %s" % (model.name, model.horizon, pol.value, path))
    return 0


def cmd_features(args) -> int:
    _, cs, hashes, out = _inputs(args)
    matrix = build_matrix(cs.trees)
    piv = pivot_decompose(matrix)

    matrix_path = out / "behavior_matrix.csv"
    matrix_path.write_text(matrix_to_csv(matrix))
    feat_path = out / "features.json"
    _write_json(
        feat_path,
        {
            "trees": len(cs.trees),
            "sequences": len(matrix.columns),
            "rank": piv.rank,
            "pivot_indices": list(piv.pivot_indices),
            "pivot_sequences": [s.compact() for s in piv.pivot_sequences],
        },
    )
    outputs = {"matrix": matrix_path, "features": feat_path}
    _record(args, None, outputs, hashes)
    print(
        "%d trees, %d sequences, rank %d -> %s"
        % (len(cs.trees), len(matrix.columns), piv.rank, feat_path)
    )
    return 0


def cmd_topk(args) -> int:
    known_ss, select_ss = np.random.SeedSequence(args.seed).spawn(2)
    config = SelectionConfig(
        measure=args.measure, k_max=args.k_max, patience=args.patience, seed=select_ss
    )
    domain, _, hashes, out = _inputs(args)
    level0 = project_level0(domain, "j")

    t0 = time.perf_counter()
    known = generate_known_models(level0, args.known, seed=known_ss)
    t_known = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = select_topk(known, level0, config)
    t_select = time.perf_counter() - t0

    cand_path = out / "candidates.json"
    save_candidate_set(result, cand_path)
    div_path = out / "diversity.csv"
    div_path.write_text(report_to_csv(result.report))
    timings = {
        "m": args.known,
        "measure": args.measure,
        "generate_seconds": t_known,
        "select_seconds": t_select,
    }
    outputs = {"candidates": cand_path, "diversity": div_path}
    _record(args, domain, outputs, hashes, timings)
    added = len(result.trees) - args.known
    print(
        "%s: %d known + %d added (%.2fs) -> %s"
        % (args.measure, args.known, added, t_select, cand_path)
    )
    return 0


def cmd_solve_idid(args) -> int:
    domain, cs, hashes, out = _inputs(args)

    t0 = time.perf_counter()
    flat = flatten(domain, cs)
    pol = solve_idid(flat)
    elapsed = time.perf_counter() - t0

    path = out / "policy_idid.json"
    _write_policy(
        path, flat.model, pol, candidates=len(cs.trees), augmented_states=len(flat.model.states)
    )
    _record(args, domain, {"policy": path}, hashes, {"solve_seconds": elapsed})
    print(
        "flattened %d states, value %.6f -> %s"
        % (len(flat.model.states), pol.value, path)
    )
    return 0


def cmd_simulate(args) -> int:
    _count("rounds", args.rounds, MAX_ROUNDS)
    domain, cs, hashes, out = _inputs(args)

    # Each round's steps are written as the round ends, so no trace is kept.
    ep_path = out / "episodes.csv"
    t0 = time.perf_counter()
    with ep_path.open("w") as f:
        f.write(_csv_line(EPISODE_COLUMNS))
        stats = run_experiment(
            domain,
            cs,
            true_mode=args.true_mode,
            rounds=args.rounds,
            seed=args.seed,
            on_round=lambda k, ep: f.writelines(map(_csv_line, episode_rows(k, ep))),
        )
    elapsed = time.perf_counter() - t0

    stats_path = out / "stats.json"
    _write_json(
        stats_path,
        {
            "rounds": stats.rounds,
            "true_mode": args.true_mode,
            "mean_reward_i": stats.mean_reward_i,
            "reward_variance_i": stats.reward_variance_i,
            "mean_reward_j": stats.mean_reward_j,
            "policy_value": stats.policy_value,
        },
    )
    outputs = {"episodes": ep_path, "stats": stats_path}
    _record(args, domain, outputs, hashes, {"simulate_seconds": elapsed})
    print(
        "%d rounds: mean reward %.3f (planned %.3f) -> %s"
        % (stats.rounds, stats.mean_reward_i, stats.policy_value, stats_path)
    )
    return 0


def cmd_experiment(args) -> int:
    # The grid runner makes the directory once the config has passed.
    out = Path(args.out_dir)
    if args.from_manifest:
        manifest = run_from_manifest(args.from_manifest, out, workers=args.workers)
    else:
        # --domain and --seed fill only the keys a config file leaves out.
        flags = {"domain": args.domain, "seeds": [args.seed]}
        config, hashes = flags, {}
        if args.config:
            # normalize_grid_config refuses a config that is not an object.
            config, hashes["config"] = _read_input(
                args.config,
                lambda obj: normalize_grid_config(
                    {**flags, **obj} if isinstance(obj, dict) else obj
                ),
            )
        manifest = run_experiment_grid(
            config, out, workers=args.workers, input_hashes=hashes
        )
    n_cells = len(manifest.timings.get("cells", {}))
    print(
        "%d cells ok, %d failed -> %s"
        % (n_cells, len(manifest.errors), Path(out) / "results.csv")
    )
    for err in manifest.errors:
        print("  failed %s: %s" % (err["cell"], err["error"]), file=sys.stderr)
    return 1 if manifest.errors else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
