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
- every item of the benchmark's three workloads, run by
  ``perfbench/workloads.py``'s own ``run_item``, which this file reads and
  never edits: the grid CSVs of ``tiger-oos-grid`` items 0-3 and
  ``uav-plan-grid`` items 0-4, and for ``uav-topk-features`` seeds 0-2 a T=4
  ``topk`` then ``features``, MDP and MDF, through the command line;
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
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  perfbench/workloads.py, the benchmark's items

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
# The parts ``generate(..., quick=True)`` leaves out.
SLOW = ("tiger-oos-grid",)


def _main(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main([str(a) for a in argv]) != 0:
            raise RuntimeError("ididiv %s failed" % " ".join(map(str, argv)))


def _workloads(out: Path, quick: bool) -> None:
    for name, wl in workloads.WORKLOADS.items():
        if quick and name in SLOW:
            continue
        for item in wl.items:
            d = out / name / (("item-%d" if wl.grid else "seed-%d") % item)
            with contextlib.redirect_stdout(io.StringIO()):
                if not workloads.run_item(wl, item, d):
                    raise RuntimeError("%s item %d failed" % (name, item))


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
    run_experiment_grid(CRITERION_9, out / "criterion-9")
    _workloads(out, quick)
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
