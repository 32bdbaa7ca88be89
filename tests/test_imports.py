"""The runtime imports numpy only; scipy is a test dependency.  The process
pool is imported only by a grid run with more than one worker, and
``fractions`` only when ``PivotResult.u_matrix`` is read.  The package
exports what its pipeline modules' ``__all__`` lists declare, and a bare
``import ididiv`` leaves the command line unloaded."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import ididiv

# The pipeline modules, in the order the package concatenates their __all__.
MODULES = (
    "trees", "domains", "solver", "features", "diversity",
    "generation", "selection", "flattening", "simulate", "runs",
)


def test_package_all_is_the_modules_all():
    modules = [importlib.import_module("ididiv." + m) for m in MODULES]
    assert ididiv.__all__ == [name for mod in modules for name in mod.__all__]
    assert len(set(ididiv.__all__)) == len(ididiv.__all__)
    for mod in modules:
        for name in mod.__all__:
            obj = getattr(mod, name)
            assert getattr(ididiv, name) is obj
            # A class or function is the one its module defines.
            assert getattr(obj, "__module__", mod.__name__) == mod.__name__
    assert ididiv.__version__ == ididiv.TOOL_VERSION


def test_package_exports_no_other_name():
    public = {n for n in vars(ididiv) if not n.startswith("_")}
    assert public - set(MODULES) - {"cli"} == set(ididiv.__all__)


def _modules_loaded_by_import(test: str, imports: str = "ididiv, ididiv.cli") -> str:
    """The sorted names m in sys.modules that satisfy ``test`` after a fresh
    ``import <imports>``."""
    src = str(Path(ididiv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, %s; "
        "print(sorted(m for m in sys.modules if %s))" % (imports, test)
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


def test_package_does_not_import_the_command_line():
    test = "m in ('ididiv.cli', 'argparse')"
    assert _modules_loaded_by_import(test, imports="ididiv") == "[]"
