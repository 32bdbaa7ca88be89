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
import hashlib
import json
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
    resolve_domain,
    run_experiment_grid,
    run_from_manifest,
    write_manifest,
)
from .selection import (  # noqa: F401
    CandidateModelSet,
    SelectionConfig,
    candidate_set_from_obj,
    load_candidate_set,
    save_candidate_set,
    select_topk,
)
from .simulate import TRUE_MODES, episodes_to_csv, run_experiment
from .solver import solve_exact
from .trees import _read_json, canonical_encode
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

    p = sub.add_parser("solve", help="solve a level-0 model exactly")
    p.add_argument("--agent", choices=["i", "j"], default="j")
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("features", help="behavior matrix and pivot features")
    p.add_argument("--trees", required=True, help="candidate set JSON file")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("topk", help="build a diverse candidate model set")
    p.add_argument("--measure", choices=["MDP", "MDF"], default="MDF")
    p.add_argument("--known", type=int, default=3, help="known model count M")
    p.add_argument("--k-max", type=int, default=6, help="candidate set size cap")
    p.add_argument("--patience", type=int, default=20)
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(func=cmd_topk)

    p = sub.add_parser("solve-idid", help="solve the flattened planning problem")
    p.add_argument("--candidates", required=True, help="candidate set JSON file")
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(func=cmd_solve_idid)

    p = sub.add_parser("simulate", help="play repeated interaction rounds")
    p.add_argument("--candidates", required=True, help="candidate set JSON file")
    p.add_argument("--rounds", type=int, default=50)
    p.add_argument("--true-mode", choices=list(TRUE_MODES), default="from-set")
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("experiment", help="run a batch experiment grid")
    p.add_argument("--config", default=None, help="grid config JSON file")
    p.add_argument("--from-manifest", default=None, help="rerun a recorded manifest")
    p.set_defaults(func=cmd_experiment)

    return parser


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _record(args, config: dict, outputs: dict, input_hashes: dict, timings=None) -> None:
    """Write the subcommand's manifest.json into its output directory.

    `input_hashes` maps each input's name to the SHA-256 taken when it was
    read, before the run; `outputs` maps names to the paths written.
    """
    manifest = RunManifest(
        command=args.command,
        config=config,
        seed=args.seed,
        input_hashes=input_hashes,
        outputs={name: Path(path).name for name, path in outputs.items()},
        timings=timings or {},
    )
    write_manifest(manifest, args.out_dir)


def _read_candidates(path) -> tuple[CandidateModelSet, str]:
    """The candidate set in ``path`` and the SHA-256 of the bytes it was
    parsed from, read once, so a manifest names the bytes the run used."""
    obj, data = _read_json(path)
    return candidate_set_from_obj(obj, path), hashlib.sha256(data).hexdigest()


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    by_horizon, hashes = resolve_domain(args.domain, [args.horizon])
    out = _out_dir(args)
    model = project_level0(by_horizon[args.horizon], args.agent)
    pol = solve_exact(model)
    elapsed = time.perf_counter() - t0

    path = out / ("policy_%s.json" % args.agent)
    _write_json(
        path,
        {
            "agent": args.agent,
            "model": model.name,
            "horizon": model.horizon,
            "value": pol.value,
            "tree": canonical_encode(pol.tree),
        },
    )
    config = {"domain": args.domain, "agent": args.agent, "horizon": model.horizon}
    _record(args, config, {"policy": path}, hashes, {"solve_seconds": elapsed})
    print("solved %s (T=%d): value %.6f -> %s" % (model.name, model.horizon, pol.value, path))
    return 0


def cmd_features(args) -> int:
    out = _out_dir(args)
    cs, digest = _read_candidates(args.trees)
    hashes = {"trees": digest}
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
    _record(args, {"trees": str(args.trees)}, outputs, hashes)
    print(
        "%d trees, %d sequences, rank %d -> %s"
        % (len(cs.trees), len(matrix.columns), piv.rank, feat_path)
    )
    return 0


def cmd_topk(args) -> int:
    by_horizon, hashes = resolve_domain(args.domain, [args.horizon])
    out = _out_dir(args)
    level0 = project_level0(by_horizon[args.horizon], "j")
    known_ss, select_ss = np.random.SeedSequence(args.seed).spawn(2)

    t0 = time.perf_counter()
    known = generate_known_models(level0, args.known, seed=known_ss)
    t_known = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = select_topk(
        known,
        level0,
        SelectionConfig(
            measure=args.measure,
            k_max=args.k_max,
            patience=args.patience,
            seed=select_ss,
        ),
    )
    t_select = time.perf_counter() - t0

    cand_path = out / "candidates.json"
    save_candidate_set(result, cand_path)
    div_path = out / "diversity.csv"
    div_path.write_text(report_to_csv(result.report))
    config = {
        "domain": args.domain,
        "measure": args.measure,
        "known": args.known,
        "k_max": args.k_max,
        "patience": args.patience,
        "horizon": level0.horizon,
    }
    timings = {
        "m": args.known,
        "measure": args.measure,
        "generate_seconds": t_known,
        "select_seconds": t_select,
    }
    outputs = {"candidates": cand_path, "diversity": div_path}
    _record(args, config, outputs, hashes, timings)
    added = len(result.trees) - args.known
    print(
        "%s: %d known + %d added (%.2fs) -> %s"
        % (args.measure, args.known, added, t_select, cand_path)
    )
    return 0


def cmd_solve_idid(args) -> int:
    by_horizon, hashes = resolve_domain(args.domain, [args.horizon])
    domain = by_horizon[args.horizon]
    out = _out_dir(args)
    cs, hashes["candidates"] = _read_candidates(args.candidates)

    t0 = time.perf_counter()
    flat = flatten(domain, cs)
    pol = solve_idid(flat)
    elapsed = time.perf_counter() - t0

    path = out / "policy_idid.json"
    _write_json(
        path,
        {
            "model": flat.model.name,
            "horizon": domain.horizon,
            "candidates": len(cs.trees),
            "augmented_states": len(flat.model.states),
            "value": pol.value,
            "tree": canonical_encode(pol.tree),
        },
    )
    config = {
        "domain": args.domain,
        "candidates": str(args.candidates),
        "horizon": domain.horizon,
    }
    _record(args, config, {"policy": path}, hashes, {"solve_seconds": elapsed})
    print(
        "flattened %d states, value %.6f -> %s"
        % (len(flat.model.states), pol.value, path)
    )
    return 0


def cmd_simulate(args) -> int:
    by_horizon, hashes = resolve_domain(args.domain, [args.horizon])
    domain = by_horizon[args.horizon]
    out = _out_dir(args)
    cs, hashes["candidates"] = _read_candidates(args.candidates)

    t0 = time.perf_counter()
    stats = run_experiment(
        domain,
        cs,
        true_mode=args.true_mode,
        rounds=args.rounds,
        seed=args.seed,
        keep_traces=True,
    )
    elapsed = time.perf_counter() - t0

    ep_path = out / "episodes.csv"
    ep_path.write_text(episodes_to_csv(stats.traces))
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
    config = {
        "domain": args.domain,
        "candidates": str(args.candidates),
        "rounds": args.rounds,
        "true_mode": args.true_mode,
        "horizon": domain.horizon,
    }
    outputs = {"episodes": ep_path, "stats": stats_path}
    _record(args, config, outputs, hashes, {"simulate_seconds": elapsed})
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
        config = {"domain": args.domain, "seeds": [args.seed]}
        hashes = {}
        if args.config:
            obj, data = _read_json(args.config)
            if not isinstance(obj, dict):
                raise ValueError(
                    "%s: a grid config is a JSON object, not a %s"
                    % (args.config, type(obj).__name__)
                )
            config.update(obj)
            hashes["config"] = hashlib.sha256(data).hexdigest()
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
