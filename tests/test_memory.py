"""A subcommand reuses the built-in domain its caller already holds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ididiv

# VmHWM is the peak RSS of this process image.  ru_maxrss would not do: a
# child started by subprocess keeps its parent's peak across exec, so under
# a large test process it reads no growth at all.
_CODE = """
import sys
from ididiv import builtin_domain, cli

def peak_bytes():
    with open("/proc/self/status") as f:
        return 1024 * next(int(l.split()[1]) for l in f if l.startswith("VmHWM:"))

domain = builtin_domain("uav", 3)
before = peak_bytes()
argv = ["--domain", "uav", "--out-dir", sys.argv[1],
        "topk", "--known", "2", "--k-max", "4", "--horizon", "3"]
assert cli.main(argv) == 0
print(peak_bytes() - before, domain.transition.nbytes)
"""


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs Linux /proc")
def test_topk_does_not_rebuild_a_held_uav_domain(tmp_path):
    # A second copy of the uav joint transition (79 MB) would raise the
    # peak by about its size.
    src = str(Path(ididiv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _CODE, str(tmp_path)], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    grown, nbytes = map(int, out.stdout.split()[-2:])
    assert grown < nbytes / 2
