"""Batch experiment grids with reproducible run manifests.

A grid config is a JSON-friendly mapping of axis lists; its product defines
the cells.  Every cell runs the full pipeline: generate known peer models,
optionally expand them by diversity-guided selection, then plan and play
repeated interaction rounds.  Seeds are derived per cell and per stage so
that algorithms sharing a seed also share the known models and the true-peer
stream, which is what makes per-seed comparisons across algorithms paired.

Result CSVs contain no timestamps or timings; rerunning a recorded manifest
with the same tool version and the same BLAS threading reproduces them byte
for byte.  Wall-clock timings, the thread settings and per-cell failures
live only in the manifest.

``resolve_domain`` is the one reading of a domain value, for grids, for
``run_cell`` and for the command line: a builtin name, or a JSON file that
is read once and parsed and hashed from the same bytes.  A manifest's
``input_hashes`` are those hashes, so they name the bytes a run used, and a
replay refuses a domain file whose hash has changed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import numbers
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .domains import (
    BUILTIN_DOMAINS,
    PosgDomain,
    builtin_domain,
    domain_from_obj,
    project_level0,
    with_horizon,
)
from .generation import generate_known_models
from .selection import SelectionConfig, make_candidate_set, select_topk
from .simulate import TRUE_MODES, run_experiment
from .trees import _csv_text, _read_json, canonical_encode

__all__ = [
    "TOOL_VERSION",
    "ALGORITHMS",
    "RunManifest",
    "write_manifest",
    "load_manifest",
    "file_sha256",
    "resolve_domain",
    "normalize_grid_config",
    "grid_cells",
    "run_cell",
    "run_experiment_grid",
    "run_from_manifest",
]

TOOL_VERSION = "0.1.0"
ALGORITHMS = ("IDID", "IDID-MDP", "IDID-MDF")

_GRID_DEFAULTS = {
    "domain": "tiger",
    "horizons": [3],
    "model_counts": [3],
    "expansions": [2],
    "algorithms": list(ALGORITHMS),
    "true_modes": ["from-set"],
    "rounds": 50,
    "seeds": [0],
    "patience": 20,
}

# Smallest value each numeric grid axis accepts.
_AXIS_MIN = {"horizons": 1, "model_counts": 1, "expansions": 0, "seeds": 0}

RESULTS_COLUMNS = (
    "domain", "algorithm", "horizon", "m", "k", "true_mode", "seed", "rounds",
    "candidates", "mean_reward", "reward_variance", "policy_value",
)
DIVERSITY_COLUMNS = (
    "domain", "algorithm", "horizon", "m", "k", "true_mode", "seed",
    "candidates", "mdp", "mdf", "mean_reward",
)
# Environment variables that set the BLAS thread count, recorded in the
# manifest.  Of the pipeline's sums only the level-0 models' dense
# b @ T[:, a, :] still goes through BLAS; the flattened solve has none.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

RESULTS_HEADER = ",".join(RESULTS_COLUMNS)
DIVERSITY_HEADER = ",".join(DIVERSITY_COLUMNS)


@dataclass
class RunManifest:
    """Everything needed to rerun a command and audit what it produced."""

    command: str
    config: dict
    seed: int | None
    tool_version: str = TOOL_VERSION
    input_hashes: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    threads: dict = field(default_factory=dict)


def write_manifest(m: RunManifest, out_dir) -> Path:
    path = Path(out_dir) / "manifest.json"
    path.write_text(json.dumps(dataclasses.asdict(m), sort_keys=True, indent=2) + "\n")
    return path


def load_manifest(path) -> RunManifest:
    obj = _read_json(path)[0]
    try:
        return RunManifest(**{"seed": None, "tool_version": "unknown", **obj})
    except TypeError as exc:  # names the unknown or missing key
        raise ValueError("manifest %s: %s" % (path, exc)) from None


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _check_domain_name(name) -> None:
    """Refuse a domain that is neither a builtin name nor an existing file."""
    # os.path.isfile, unlike Path.is_file, is False for a name too long to stat.
    if not isinstance(name, str) or not (name in BUILTIN_DOMAINS or os.path.isfile(name)):
        raise ValueError(
            "domain %r is neither a builtin (%s) nor a file"
            % (name, ", ".join(sorted(BUILTIN_DOMAINS)))
        )


def _integer(key: str, x) -> int:
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError("%s: %r is not an integer" % (key, x))
    return int(x)


def normalize_grid_config(obj: dict) -> dict:
    """Fill defaults and validate; unknown keys are rejected.

    Axes must be lists, and the numeric axes, ``rounds`` and ``patience``
    must hold integers; nothing is coerced.
    """
    unknown = set(obj) - set(_GRID_DEFAULTS)
    if unknown:
        raise ValueError("unknown grid config keys: %s" % ", ".join(sorted(unknown)))
    cfg = dict(_GRID_DEFAULTS)
    cfg.update(obj)
    _check_domain_name(cfg["domain"])
    for key in (*_AXIS_MIN, "algorithms", "true_modes"):
        if not isinstance(cfg[key], (list, tuple)):
            raise ValueError("%s must be a list, got %r" % (key, cfg[key]))
    for key, lo in _AXIS_MIN.items():
        cfg[key] = [_integer(key, x) for x in cfg[key]]
        if not cfg[key]:
            raise ValueError("%s must be non-empty" % key)
        if min(cfg[key]) < lo:
            raise ValueError("%s must all be >= %d" % (key, lo))
    for key, allowed in (("algorithms", ALGORITHMS), ("true_modes", TRUE_MODES)):
        if not cfg[key]:
            raise ValueError("%s must be non-empty" % key)
        for value in cfg[key]:
            if value not in allowed:
                raise ValueError("%s: unknown value %r" % (key, value))
    for key in ("rounds", "patience"):
        cfg[key] = _integer(key, cfg[key])
        if cfg[key] < 1:
            raise ValueError("%s must be >= 1" % key)
    return cfg


def grid_cells(config: dict) -> list[dict]:
    """Product of the grid axes, in deterministic report order."""
    axes = ("horizons", "model_counts", "expansions", "true_modes", "algorithms", "seeds")
    keys = ("horizon", "m", "k", "true_mode", "algorithm", "seed")
    return [
        {"domain": config["domain"], **dict(zip(keys, values)),
         "rounds": config["rounds"], "patience": config["patience"]}
        for values in itertools.product(*(config[a] for a in axes))
    ]


def cell_id(cell: dict) -> str:
    return "alg=%s,T=%d,M=%d,K=%d,mode=%s,seed=%d" % tuple(
        cell[k] for k in ("algorithm", "horizon", "m", "k", "true_mode", "seed")
    )


def _stage_seed(cell: dict, stage: str) -> np.random.SeedSequence:
    # Known models and the episode stream must be shared by all algorithms
    # at the same seed (that is what makes comparisons paired), so their
    # entropy excludes the algorithm and the expansion size.
    code = {"known": 1, "select": 2, "episodes": 3}[stage]
    if stage == "select":
        extra = [cell["k"], ALGORITHMS.index(cell["algorithm"])]
    else:
        extra = [0, 0]
    return np.random.SeedSequence(
        [int(cell["seed"]), int(cell["horizon"]), int(cell["m"]), *extra, code]
    )


def resolve_domain(name, horizons) -> tuple[dict, dict]:
    """The domain ``name`` at each horizon, and the input hashes it read.

    A builtin is the shared ``builtin_domain(name, h)``, ``None`` meaning its
    default horizon, and hashes nothing.  A file is read once for all the
    horizons (``None`` keeps the file's own), and ``{"domain": sha256}`` is
    the hash of the bytes parsed, not of the file after the run.
    """
    _check_domain_name(name)
    if name in BUILTIN_DOMAINS:
        return {h: builtin_domain(name, h) for h in horizons}, {}
    obj, data = _read_json(name)
    domain = domain_from_obj(obj)
    by_horizon = {h: domain if h is None else with_horizon(domain, h) for h in horizons}
    return by_horizon, {"domain": hashlib.sha256(data).hexdigest()}


def _candidates_for(cell: dict, alg: str, known, level0):
    if alg == "IDID":
        return make_candidate_set(known, len(level0.observations))
    measure = alg.split("-", 1)[1]
    return select_topk(
        known,
        level0,
        SelectionConfig(
            measure=measure,
            k_max=cell["m"] + cell["k"],
            patience=cell["patience"],
            seed=_stage_seed({**cell, "algorithm": alg}, "select"),
        ),
    )


def run_cell(cell: dict, domain: PosgDomain | None = None) -> dict:
    """One grid cell, returning a flat result row plus its elapsed time.

    ``domain`` is the cell's domain at its horizon, when the caller holds it.
    """
    t0 = time.perf_counter()
    if domain is None:
        domain = resolve_domain(cell["domain"], [cell["horizon"]])[0][cell["horizon"]]
    level0 = project_level0(domain, "j")
    known = generate_known_models(level0, cell["m"], seed=_stage_seed(cell, "known"))
    alg = cell["algorithm"]
    candidates = _candidates_for(cell, alg, known, level0)
    excluded = None
    if cell["true_mode"] == "random-generated":
        # The true peer model must avoid every algorithm's expanded set, not
        # just this cell's: with the union excluded, the drawn stream depends
        # only on the seed, so algorithms face identical true models.
        union = set()
        for other in ALGORITHMS:
            cset = candidates if other == alg else _candidates_for(cell, other, known, level0)
            union.update(canonical_encode(t) for t in cset.trees)
        excluded = frozenset(union)
    stats = run_experiment(
        domain,
        candidates,
        true_mode=cell["true_mode"],
        rounds=cell["rounds"],
        seed=_stage_seed(cell, "episodes"),
        excluded_encodings=excluded,
    )
    return {
        "domain": domain.name,
        "algorithm": alg,
        "horizon": cell["horizon"],
        "m": cell["m"],
        "k": cell["k"],
        "true_mode": cell["true_mode"],
        "seed": cell["seed"],
        "rounds": cell["rounds"],
        "candidates": len(candidates.trees),
        "mean_reward": stats.mean_reward_i,
        "reward_variance": stats.reward_variance_i,
        "policy_value": stats.policy_value,
        "mdp": candidates.report.mdp_value,
        "mdf": candidates.report.mdf_value,
        "_elapsed": time.perf_counter() - t0,
    }


def _safe_run_cell(cell: dict, domain: PosgDomain | None = None) -> tuple[dict | None, str | None]:
    try:
        return run_cell(cell, domain), None
    except Exception as exc:  # per-cell isolation: one bad cell cannot sink the grid
        return None, "%s: %s" % (type(exc).__name__, exc)


# A pool worker's domains by horizon, handed over when the worker starts.
_worker_domains: dict = {}


def _hold_domains(domains: dict) -> None:
    _worker_domains.update(domains)


def _worker_run_cell(cell: dict) -> tuple[dict | None, str | None]:
    return _safe_run_cell(cell, _worker_domains[cell["horizon"]])


def run_experiment_grid(
    config: dict,
    out_dir,
    workers: int = 1,
    input_hashes: dict | None = None,
) -> RunManifest:
    """Run every grid cell and write results.csv, diversity.csv, manifest.json.

    ``input_hashes`` are the caller's hashes of its inputs, for the manifest.
    A ``"domain"`` hash among them must be that of the domain bytes parsed,
    or the grid is refused before anything is written.
    """
    config = normalize_grid_config(config)
    cells = grid_cells(config)
    # Each horizon's domain is resolved once and held while every cell runs,
    # so cells neither rebuild a built-in nor reread a domain file.
    t0 = time.perf_counter()
    held, domain_hashes = resolve_domain(config["domain"], config["horizons"])
    input_hashes = input_hashes or {}
    if "domain" in input_hashes and input_hashes["domain"] != domain_hashes.get("domain"):
        raise ValueError("domain file %s changed since its hash was recorded" % config["domain"])
    input_hashes = {**input_hashes, **domain_hashes}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if workers <= 1:
        outcomes = [_safe_run_cell(c, held[c["horizon"]]) for c in cells]
    else:
        # Imported here, the one place that uses it: with multiprocessing it
        # would add over 1 MB to every process that imports ididiv.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_hold_domains, initargs=(held,)
        ) as ex:
            outcomes = list(ex.map(_worker_run_cell, cells))
    total = time.perf_counter() - t0

    rows: list[dict] = []
    errors: list[dict] = []
    timings: dict = {"total_seconds": total, "cells": {}}
    for cell, (row, err) in zip(cells, outcomes):
        cid = cell_id(cell)
        if err is not None:
            errors.append({"cell": cid, "error": err})
            continue
        timings["cells"][cid] = row.pop("_elapsed")
        rows.append(row)

    for name, columns in (("results.csv", RESULTS_COLUMNS), ("diversity.csv", DIVERSITY_COLUMNS)):
        (out / name).write_text(_csv_text(columns, [[r[c] for c in columns] for r in rows]))

    manifest = RunManifest(
        command="experiment",
        config=config,
        seed=None,
        input_hashes=input_hashes,
        outputs={"results": "results.csv", "diversity": "diversity.csv"},
        timings=timings,
        errors=errors,
        threads={
            **{k: os.environ.get(k) for k in THREAD_VARS},
            "cpu_count": os.cpu_count(),
        },
    )
    write_manifest(manifest, out)
    return manifest


def run_from_manifest(manifest_path, out_dir, workers: int = 1) -> RunManifest:
    """Rerun a recorded experiment grid; CSV outputs reproduce byte for byte.

    Refuses, before writing anything, a manifest written by another tool
    version or one whose domain file, as the replay parses it, has changed
    since it was recorded.
    """
    m = load_manifest(manifest_path)
    if m.command != "experiment":
        raise ValueError("manifest records command %r, not an experiment" % m.command)
    if m.tool_version != TOOL_VERSION:
        raise ValueError(
            "manifest was written by tool version %s, this is %s"
            % (m.tool_version, TOOL_VERSION)
        )
    config = normalize_grid_config(m.config)
    recorded = {} if config["domain"] in BUILTIN_DOMAINS else {"domain": m.input_hashes.get("domain")}
    return run_experiment_grid(config, out_dir, workers=workers, input_hashes=recorded)
