"""The uav domain is built once per holder and stays small once built,
projected and flattened."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ididiv

_REUSE = """
import sys
from ididiv import builtin_domain, cli, domains

calls = []
build = domains._BUILDERS["uav"]
domains._BUILDERS["uav"] = lambda horizon: calls.append(horizon) or build(horizon)
domain = builtin_domain("uav", 3)
argv = ["--domain", "uav", "--out-dir", sys.argv[1],
        "topk", "--known", "2", "--k-max", "4", "--horizon", "3"]
assert cli.main(argv) == 0
print(calls)
"""

# VmHWM is the peak RSS of this process image.  ru_maxrss would not do: a
# child started by subprocess keeps its parent's peak across exec, so under
# a large test process it reads no growth at all.
_PEAK = """
from ididiv import builtin_domain, project_level0

def peak_bytes():
    with open("/proc/self/status") as f:
        return 1024 * next(int(l.split()[1]) for l in f if l.startswith("VmHWM:"))
"""

_BUILD_PEAK = _PEAK + """
before = peak_bytes()
domain = builtin_domain("uav", 3)
print(peak_bytes() - before)
"""

# The build alone, by the peak of traced allocations.
_BUILD_TRACED = """
import tracemalloc
from ididiv import builtin_domain

tracemalloc.start()
domain = builtin_domain("uav", 3)
print(tracemalloc.get_traced_memory()[1])
"""

# The uav chase has no prebuilt view for agent i, so this projects.
_LEVEL0_PEAK = _PEAK + """
domain = builtin_domain("uav", 3)
before = peak_bytes()
model = project_level0(domain, "i")
print(peak_bytes() - before)
"""

# Six candidates: 79,128 augmented states.  A CSR copy of the domain block
# at every position would alone hold 26.6 MB.
_FLAT_SOLVE_PEAK = _PEAK + """
from ididiv import (
    SelectionConfig, flatten, generate_known_models, select_topk, solve_idid,
)

domain = builtin_domain("uav", 3)
level0 = project_level0(domain, "j")
known = generate_known_models(level0, 3, seed=0)
candidates = select_topk(known, level0, SelectionConfig(measure="MDF", k_max=6, seed=0))
assert len(candidates.trees) == 6
before = peak_bytes()
solve_idid(flatten(domain, candidates))
print(peak_bytes() - before)
"""

# The same set's solve alone, by the peak of traced allocations.
_FLAT_SOLVE_TRACED = """
import tracemalloc
from ididiv import (
    SelectionConfig, builtin_domain, flatten, generate_known_models, project_level0,
    select_topk, solve_idid,
)

domain = builtin_domain("uav", 3)
level0 = project_level0(domain, "j")
known = generate_known_models(level0, 3, seed=0)
candidates = select_topk(known, level0, SelectionConfig(measure="MDF", k_max=6, seed=0))
flat = flatten(domain, candidates)
assert len(flat.model.states) == 79128
tracemalloc.start()
solve_idid(flat)
print(tracemalloc.get_traced_memory()[1])
"""

# The file holds the table's 41,408 stored entries, not a dense
# [628][5][5][628] table.
_FILE_PEAK = _PEAK + """
import json
from ididiv import serialize_domain
from ididiv.domains import domain_from_obj

domain = builtin_domain("uav", 3)
before = peak_bytes()
again = domain_from_obj(json.loads(serialize_domain(domain)))
assert again.transition == domain.transition
print(peak_bytes() - before)
"""


def _run(code, *args) -> str:
    src = str(Path(ididiv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return out.stdout.split("\n")[-2]


def test_topk_does_not_rebuild_a_held_uav_domain(tmp_path):
    assert _run(_REUSE, str(tmp_path)) == "[3]"


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs Linux /proc")
def test_building_uav_raises_the_peak_by_little():
    # A dense [628, 5, 5, 628] joint transition alone would be 79 MB.
    assert int(_run(_BUILD_PEAK)) < 8 * 2**20


def test_building_uav_traces_little_beyond_its_table():
    # The domain holds 1.49 MB when built, 0.59 MB of it the joint table.
    # One np.unique over the keys of all 25 action pairs at once peaked at
    # 4.24 MB; reduced pair by pair the build peaks at 2.27 MB.
    assert int(_run(_BUILD_TRACED)) < 3 * 2**20


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs Linux /proc")
def test_projecting_uav_for_i_raises_the_peak_by_little():
    # The [628, 5, 628] result is 15.8 MB; densifying the joint table first
    # would add 79 MB.
    assert int(_run(_LEVEL0_PEAK)) < 40 * 2**20


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs Linux /proc")
def test_flattening_and_solving_uav_raises_the_peak_by_little():
    # The model copies nothing from the domain: the transition operators,
    # likelihood and reward gathers read its tables and the state labels
    # are made on index.  Per-position copies of obs_fn_i (12.7 MB) and reward_i
    # (3.2 MB) and the 79,128 labels (5.7 MB) would raise it past the bound.
    assert int(_run(_FLAT_SOLVE_PEAK)) < 8 * 2**20


def test_flattened_uav_solve_holds_less_than_one_dense_belief():
    # Beliefs over their support: no belief the solve reaches holds more
    # than 1,376 of the 79,128 states, so the whole solve allocates less
    # than one float vector over all of them (633,024 bytes).
    assert int(_run(_FLAT_SOLVE_TRACED)) < 79128 * 8


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs Linux /proc")
def test_uav_domain_file_round_trip_raises_the_peak_by_little():
    # Through the dense table it raised the peak by 1.2 GB.
    assert int(_run(_FILE_PEAK)) < 150 * 2**20
