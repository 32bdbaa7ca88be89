"""A batch experiment grid with a reproducible manifest.

Every cell runs the full pipeline: generate known models, expand by guided
selection, plan, and play interaction rounds.  The manifest records enough to
regenerate the CSVs byte for byte.
"""

import tempfile
from pathlib import Path

from ididiv import run_experiment_grid, run_from_manifest
from ididiv.runs import file_sha256

config = {
    "domain": "tiger",
    "horizons": [2],
    "model_counts": [2, 3],
    "expansions": [2],
    "algorithms": ["IDID", "IDID-MDP", "IDID-MDF"],
    "true_modes": ["from-set"],
    "rounds": 10,
    "seeds": [0, 1],
}

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    manifest = run_experiment_grid(config, out / "first")
    print("cells:", len(manifest.timings["cells"]))
    print("errors:", manifest.errors)
    print()

    print((out / "first" / "results.csv").read_text())

    rerun = run_from_manifest(out / "first" / "manifest.json", out / "second")
    same = all(
        file_sha256(out / "first" / f) == file_sha256(out / "second" / f)
        for f in ("results.csv", "diversity.csv")
    )
    print("manifest rerun reproduces the CSVs byte for byte:", same)
