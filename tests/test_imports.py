"""The runtime imports numpy only; scipy is a test dependency."""

import os
import subprocess
import sys
from pathlib import Path

import ididiv


def test_package_and_cli_do_not_import_scipy():
    src = str(Path(ididiv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, ididiv, ididiv.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert out.stdout.strip() == "[]"
