"""Batch experiment grids with reproducible run manifests.

A grid config is a JSON-friendly mapping of axis lists; its product defines
the cells.  Every cell runs the full pipeline: generate known peer models,
optionally expand them by diversity-guided selection, then plan and play
repeated interaction rounds.  Seeds are derived per cell and per stage so
that algorithms sharing a seed also share the known models and the true-peer
stream, which is what makes per-seed comparisons across algorithms paired.

Result CSVs contain no timestamps or timings; rerunning a recorded manifest
with the same tool version reproduces them byte for byte, under any BLAS
thread count.  Wall-clock timings, the thread settings and per-cell failures
live only in the manifest.

``resolve_domain`` is the one reading of a domain value, for grids and for
the command line: a builtin name, or a JSON file that is read once, through
``trees._read_input``, and parsed and hashed from the same bytes.  A
manifest's ``input_hashes`` are those hashes, so they name the bytes a run
used, and a replay refuses a domain file whose hash has changed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import sys
import time
import typing
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .domains import BUILTIN_DOMAINS, PosgDomain, builtin_domain, domain_from_obj, project_level0
from .generation import generate_known_models
from .selection import MAX_PATIENCE, MEASURES, SelectionConfig, make_candidate_set, select_topk
from .simulate import MAX_ROUNDS, TRUE_MODES, run_experiment
# canonical_encode is unused here; perfbench/tracer.py binds runs.canonical_encode.
from .trees import (  # noqa: F401
    _check_keys, _count, _csv_text, _integer, _json_text, _read_input, canonical_encode,
)

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
ALGORITHMS = ("IDID", *("IDID-" + m for m in MEASURES))

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

# Each grid config key's JSON kind: an axis, whose default is a list, is a list.
_GRID_KINDS = {key: list if isinstance(v, list) else None for key, v in _GRID_DEFAULTS.items()}
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
# manifest; no sum in the pipeline goes through BLAS.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


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
    versions: dict = field(default_factory=dict)


def write_manifest(
    out_dir, command: str, config: dict, seed: int | None, input_hashes: dict,
    outputs: dict, timings: dict, errors=(),
) -> RunManifest:
    """Write ``out_dir/manifest.json`` for a run and return its manifest;
    ``outputs`` maps names to file names.  The tool version, ``threads`` and
    ``versions``, which every run records, are filled in here."""
    threads = {**{k: os.environ.get(k) for k in THREAD_VARS}, "cpu_count": os.cpu_count()}
    m = RunManifest(
        command, config, seed, input_hashes=input_hashes, outputs=outputs, timings=timings,
        errors=list(errors), threads=threads, versions=_versions(),
    )
    (Path(out_dir) / "manifest.json").write_text(_json_text(dataclasses.asdict(m)))
    return m


def _versions() -> dict:
    """The numpy and Python versions a manifest records; every stream comes
    from numpy's Generator, so a replay refuses another numpy version."""
    return {"numpy": np.__version__, "python": "%d.%d.%d" % sys.version_info[:3]}


def _manifest_from_obj(obj) -> RunManifest:
    """The manifest a parsed manifest file describes; an unknown or missing
    key, or a field of another kind than ``RunManifest`` declares, is named."""
    _check_keys("manifest", obj, typing.get_type_hints(RunManifest), ("command", "config"))
    return RunManifest(**{"seed": None, "tool_version": "unknown", **obj})


def load_manifest(path) -> RunManifest:
    return _read_input(path, _manifest_from_obj)[0]


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


def normalize_grid_config(obj: dict) -> dict:
    """Fill defaults and validate; unknown keys are rejected.

    Axes must be non-empty lists without a repeated value, and the numeric
    axes, ``rounds`` and ``patience`` must hold integers; nothing is coerced.
    """
    _check_keys("grid config", obj, _GRID_KINDS)
    cfg = dict(_GRID_DEFAULTS)
    cfg.update(obj)
    _check_domain_name(cfg["domain"])
    allowed = {"algorithms": ALGORITHMS, "true_modes": TRUE_MODES}
    for key in (*_AXIS_MIN, *allowed):
        values = cfg[key]
        if not values:
            raise ValueError("%s must be non-empty" % key)
        if key in _AXIS_MIN:
            values = cfg[key] = [_integer(key, x) for x in values]
            if min(values) < _AXIS_MIN[key]:
                raise ValueError("%s must all be >= %d" % (key, _AXIS_MIN[key]))
        else:
            for value in values:
                if value not in allowed[key]:
                    raise ValueError("%s: unknown value %r" % (key, value))
        value, count = Counter(values).most_common(1)[0]
        if count > 1:
            raise ValueError("%s: repeated value %r" % (key, value))
    for key, bound in (("rounds", MAX_ROUNDS), ("patience", MAX_PATIENCE)):
        cfg[key] = _count(key, cfg[key], bound)
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
    domain, digest = _read_input(name, domain_from_obj)
    return {
        h: domain if h is None else dataclasses.replace(domain, horizon=h) for h in horizons
    }, {"domain": digest}


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


def run_cell(cell: dict, domain: PosgDomain) -> dict:
    """One grid cell, returning a flat result row plus its elapsed time.

    ``domain`` is the cell's domain at its horizon, as the grid resolved it:
    ``resolve_domain(cell["domain"], [h])[0][h]`` for ``h = cell["horizon"]``.
    """
    t0 = time.perf_counter()
    level0 = project_level0(domain, "j")
    known = generate_known_models(level0, cell["m"], seed=_stage_seed(cell, "known"))
    alg = cell["algorithm"]
    candidates = _candidates_for(cell, alg, known, level0)
    excluded = None
    if cell["true_mode"] == "random-generated":
        # The true peer model must avoid every algorithm's set, not just this
        # cell's: with the union excluded, the drawn stream depends only on
        # the seed, so algorithms face identical true models.  Both
        # expansions keep every known tree, so theirs is the union of all.
        excluded = set()
        for other in ALGORITHMS[1:]:
            cset = candidates if other == alg else _candidates_for(cell, other, known, level0)
            excluded.update(cset.trees)
    stats = run_experiment(
        domain,
        candidates,
        true_mode=cell["true_mode"],
        rounds=cell["rounds"],
        seed=_stage_seed(cell, "episodes"),
        excluded_trees=excluded,
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


def _safe_run_cell(cell: dict, domain: PosgDomain) -> tuple[dict | None, str | None]:
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
    A grid with ``workers`` below 1, or a ``"domain"`` hash other than that of
    the domain bytes parsed, is refused before anything is written.
    """
    workers = _count("workers", workers)
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
    # The pool starts all its workers at once, so it asks for no more than
    # there are cells to run or CPUs to run them.
    workers = min(workers, len(cells), os.cpu_count() or 1)
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

    return write_manifest(
        out, "experiment", config, None, input_hashes,
        {"results": "results.csv", "diversity": "diversity.csv"}, timings, errors,
    )


def run_from_manifest(manifest_path, out_dir, workers: int = 1) -> RunManifest:
    """Rerun a recorded experiment grid; CSV outputs reproduce byte for byte.

    Refuses, before writing anything, a manifest written by another tool
    version or under another numpy version, or one whose domain file, as the
    replay parses it, has changed since it was recorded.  A manifest that
    records no versions replays.  The manifest is read, checked and run as one
    ``_read_input``, so every refusal starts with the manifest's path, but
    ``workers`` below 1, which is no fault of the manifest, is refused first.
    """
    workers = _count("workers", workers)

    def replay(obj) -> RunManifest:
        m = _manifest_from_obj(obj)
        if m.command != "experiment":
            raise ValueError("manifest records command %r, not an experiment" % m.command)
        if m.tool_version != TOOL_VERSION:
            raise ValueError(
                "manifest was written by tool version %s, this is %s"
                % (m.tool_version, TOOL_VERSION)
            )
        recorded_numpy = m.versions.get("numpy", np.__version__)
        if recorded_numpy != np.__version__:
            raise ValueError(
                "manifest was written under numpy %s, this is numpy %s"
                % (recorded_numpy, np.__version__)
            )
        config = normalize_grid_config(m.config)
        builtin = config["domain"] in BUILTIN_DOMAINS
        recorded = {} if builtin else {"domain": m.input_hashes.get("domain")}
        return run_experiment_grid(config, out_dir, workers=workers, input_hashes=recorded)

    return _read_input(manifest_path, replay)[0]
