"""Every input file loads into something its reader accepts again, or is
refused by a ValueError that starts with the file's path.

Each top-level field of a valid file (a tiger T=2 domain, a candidate set, a
grid config and the manifest of a one-cell, one-round grid over a domain
file) is replaced in turn by each junk value.  A manifest that loads must
also replay, or be refused with its path.  One unknown key added to any of
the four files is refused.
"""

import json
import time

import pytest

from ididiv import (
    SelectionConfig,
    builtin_domain,
    generate_known_models,
    load_candidate_set,
    load_domain,
    load_manifest,
    project_level0,
    run_experiment_grid,
    run_from_manifest,
    save_candidate_set,
    select_topk,
    serialize_domain,
    write_manifest,
)
from ididiv.domains import domain_to_obj
from ididiv.runs import normalize_grid_config
from ididiv.trees import _json_text, _read_input

JUNK = (
    None, 5, -1, 2.5, "x", "", [], {}, [1], [[1]], True, float("nan"), [None], {"a": 1}, 10**30,
)

GRID = {
    "domain": "tiger",
    "horizons": [2],
    "model_counts": [2],
    "expansions": [1],
    "algorithms": ["IDID"],
    "true_modes": ["from-set"],
    "rounds": 1,
    "seeds": [0],
    "patience": 20,
}


def _read_config(path):
    return _read_input(path, normalize_grid_config)[0]


def _write_config(config, path):
    path.write_text(_json_text(config))


def _write_domain(domain, path):
    path.write_text(serialize_domain(domain))


def _write_manifest(m, path):
    write_manifest(
        path.parent, m.command, m.config, m.seed, m.input_hashes, m.outputs, m.timings, m.errors
    )


def _candidates(path):
    level0 = project_level0(builtin_domain("tiger", 2), "j")
    known = generate_known_models(level0, 2, seed=0)
    save_candidate_set(select_topk(known, level0, SelectionConfig(k_max=3, seed=0)), path)
    return json.loads(path.read_text())


def _manifest(path):
    domain = path.parent / "tiger2.json"
    domain.write_text(serialize_domain(builtin_domain("tiger", 2)))
    run_experiment_grid(dict(GRID, domain=str(domain)), path.parent)
    return json.loads(path.read_text())


# name: (the valid file's mapping, given a scratch path; reader; writer)
READERS = {
    "domain": (lambda path: domain_to_obj(builtin_domain("tiger", 2)), load_domain, _write_domain),
    "candidates": (_candidates, load_candidate_set, save_candidate_set),
    "config": (lambda path: dict(GRID), _read_config, _write_config),
    "manifest": (_manifest, load_manifest, _write_manifest),
}


def _variants(valid: dict):
    for key in valid:
        for junk in JUNK:
            yield "%s=%r" % (key, junk), dict(valid, **{key: junk})
    yield "unknown key", dict(valid, bogus=1)


def _refused_with(path, exc) -> bool:
    return isinstance(exc, ValueError) and str(exc).startswith("%s: " % path)


@pytest.mark.parametrize("name", READERS)
def test_each_input_loads_again_or_is_refused_by_its_path(tmp_path, name):
    make, read, write = READERS[name]
    filename = "%s.json" % name  # write_manifest names its file manifest.json
    (tmp_path / "valid").mkdir()
    valid = make(tmp_path / "valid" / filename)
    t0 = time.perf_counter()
    problems, loaded = [], 0
    for n, (label, obj) in enumerate(_variants(valid)):
        case = tmp_path / str(n)
        case.mkdir()
        path = case / filename
        path.write_text(json.dumps(obj))
        try:
            value = read(path)
        except Exception as exc:
            if not _refused_with(path, exc):
                problems.append("%s: %s: %s" % (label, type(exc).__name__, exc))
            continue
        loaded += 1
        if label == "unknown key":
            problems.append("an unknown key loads")
        again = case / "again" / filename
        again.parent.mkdir()
        write(value, again)
        try:
            read(again)
        except Exception as exc:
            problems.append("%s: loads, but not once written again: %s" % (label, exc))
        if name == "manifest":
            try:
                run_from_manifest(path, case / "replay")
            except Exception as exc:
                if not _refused_with(path, exc):
                    problems.append("%s: replay: %s: %s" % (label, type(exc).__name__, exc))
    assert problems == []
    # Some variants are valid files, so a reader that refuses everything
    # fails here: a domain named "x", a grid of 5 rounds, a seed of -1.
    assert loaded > 0
    assert time.perf_counter() - t0 < 10
