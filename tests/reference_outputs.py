"""Reference outputs: regenerate a fixed set of pipeline outputs and compare
their SHA-256 hashes with those recorded in ``reference_outputs.json``.

    PYTHONPATH=src python tests/reference_outputs.py check
    PYTHONPATH=src python tests/reference_outputs.py write

``check`` exits 1 naming each file whose hash differs from the recorded one,
or that is missing or new.  ``write`` rewrites the JSON from this tree's
outputs; a change that alters outputs on purpose does that and says which
hashes moved and why.  Manifests are left out, since they hold timings.

The set:
- the criterion-9 grid's CSVs;
- the grid CSVs of ``uav-plan-grid`` items 0-4 and ``tiger-oos-grid`` items
  0-3, the benchmark's grid configs copied here at one seed per item;
- ``uav-topk-features`` seeds 0-2: T=4 ``topk`` then ``features``, MDP and
  MDF, through the command line;
- tiger and uav at T=3 through the command line: ``topk``, ``solve`` for
  agents i and j, ``solve-idid``, and ``simulate --rounds 200`` in both true
  modes.

Every stream comes from numpy's Generator, so the hashes hold for the numpy
version recorded with them; ``tests/test_reference_outputs.py`` skips under
another.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from ididiv import cli
from ididiv.runs import ALGORITHMS, _versions, run_experiment_grid

RECORD = Path(__file__).with_name("reference_outputs.json")

CRITERION_9 = {
    "domain": "tiger",
    "horizons": [2],
    "model_counts": [2],
    "expansions": [1],
    "algorithms": list(ALGORITHMS),
    "true_modes": ["from-set", "random-generated"],
    "rounds": 3,
    "seeds": [0, 1],
}
# The benchmark's grid workloads and their items, one seed per item.
GRIDS = {
    "uav-plan-grid": ((0, 1, 2, 3, 4), {
        "domain": "uav",
        "horizons": [3],
        "model_counts": [3],
        "expansions": [3],
        "algorithms": ["IDID", "IDID-MDP", "IDID-MDF"],
        "true_modes": ["from-set"],
        "rounds": 50,
    }),
    "tiger-oos-grid": ((0, 1, 2, 3), {
        "domain": "tiger",
        "horizons": [3],
        "model_counts": [4, 6],
        "expansions": [1, 3],
        "algorithms": ["IDID", "IDID-MDP", "IDID-MDF"],
        "true_modes": ["random-generated"],
        "rounds": 50,
    }),
}
# The parts ``generate(..., quick=True)`` leaves out.
SLOW = ("tiger-oos-grid",)


def _main(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main([str(a) for a in argv]) != 0:
            raise RuntimeError("ididiv %s failed" % " ".join(map(str, argv)))


def _grids(out: Path, quick: bool) -> None:
    run_experiment_grid(CRITERION_9, out / "criterion-9")
    for name, (items, grid) in GRIDS.items():
        if quick and name in SLOW:
            continue
        for item in items:
            run_experiment_grid(dict(grid, seeds=[item]), out / name / ("item-%d" % item))


def _topk_features(out: Path) -> None:
    for seed in (0, 1, 2):
        for measure in ("MDP", "MDF"):
            d = out / "uav-topk-features" / ("seed-%d" % seed) / measure
            head = ("--domain", "uav", "--seed", seed, "--out-dir", d)
            _main(*head, "topk", "--measure", measure, "--known", 3, "--k-max", 30,
                  "--horizon", 4)
            _main(*head, "features", "--trees", d / "candidates.json")


def _commands(out: Path) -> None:
    for domain in ("tiger", "uav"):
        d = out / "cli" / domain
        cands = d / "topk" / "candidates.json"
        _main("--domain", domain, "--out-dir", d / "topk", "topk", "--horizon", 3)
        for agent in ("i", "j"):
            _main("--domain", domain, "--out-dir", d / "solve", "solve", "--agent", agent,
                  "--horizon", 3)
        _main("--domain", domain, "--out-dir", d / "solve-idid", "solve-idid",
              "--candidates", cands, "--horizon", 3)
        for mode in ("from-set", "random-generated"):
            _main("--domain", domain, "--out-dir", d / ("simulate-" + mode), "simulate",
                  "--candidates", cands, "--rounds", 200, "--true-mode", mode, "--horizon", 3)


def generate(out, quick: bool = False) -> dict:
    """Write the set under ``out`` and return ``{relative path: sha256}``."""
    out = Path(out)
    _grids(out, quick)
    _topk_features(out)
    _commands(out)
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def load() -> dict:
    return json.loads(RECORD.read_text())


def differing(hashes: dict, recorded: dict, quick: bool = False) -> list[str]:
    """Each path, sorted, whose hash differs or that only one side has;
    ``quick`` ignores the recorded files it leaves out."""
    recorded = {
        k: v for k, v in recorded.items() if not (quick and k.split("/")[0] in SLOW)
    }
    return sorted(k for k in recorded.keys() | hashes.keys() if recorded.get(k) != hashes.get(k))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("action", choices=["check", "write"])
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        hashes = generate(tmp)
    if args.action == "write":
        env = {k: os.environ.get(k) for k in ("PYTHONHASHSEED", "OMP_NUM_THREADS")}
        RECORD.write_text(
            json.dumps({**_versions(), "environment": env, "outputs": hashes},
                       sort_keys=True, indent=2) + "\n"
        )
        print("%d hashes -> %s" % (len(hashes), RECORD))
        return 0
    record = load()
    if record["numpy"] != np.__version__:
        print("hashes were recorded under numpy %s, this is numpy %s"
              % (record["numpy"], np.__version__), file=sys.stderr)
        return 1
    bad = differing(hashes, record["outputs"])
    for path in bad:
        print("differs: %s" % path, file=sys.stderr)
    print("%d files, %d differ" % (len(hashes), len(bad)))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
