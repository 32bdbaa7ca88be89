"""The runtime imports numpy only; scipy is a test dependency.  The process
pool is imported only by a grid run with more than one worker, and
``fractions`` only when ``PivotResult.u_matrix`` is read."""

import os
import subprocess
import sys
from pathlib import Path

import ididiv


def _modules_loaded_by_import(test: str) -> str:
    """The sorted names m in sys.modules that satisfy ``test`` after a fresh
    ``import ididiv, ididiv.cli``."""
    src = str(Path(ididiv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, ididiv, ididiv.cli; "
        "print(sorted(m for m in sys.modules if %s))" % test
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return out.stdout.strip()


def test_package_and_cli_do_not_import_scipy():
    assert _modules_loaded_by_import("m.split('.')[0] == 'scipy'") == "[]"


def test_package_and_cli_do_not_import_the_process_pool():
    # Together they add over 1 MB to every process; run_experiment_grid
    # imports them only for a pool of more than one worker.
    test = "m == 'concurrent.futures.process' or m.split('.')[0] == 'multiprocessing'"
    assert _modules_loaded_by_import(test) == "[]"


def test_package_and_cli_do_not_import_fractions():
    # fractions loads decimal; only PivotResult.u_matrix uses it, and no
    # pipeline path reads u_matrix.
    assert _modules_loaded_by_import("m in ('fractions', 'decimal')") == "[]"
