"""The uav domain is built once per holder and stays small once built,
projected and flattened."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ididiv
from ididiv import builtin_domain, serialize_domain

_REUSE = """
import sys
from ididiv import builtin_domain, cli, domains

calls = []
build = domains.BUILTIN_DOMAINS["uav"]
domains.BUILTIN_DOMAINS["uav"] = lambda horizon: calls.append(horizon) or build(horizon)
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

# The built domain, by the traced allocations it still holds.
_LIVE_TRACED = """
import tracemalloc
from ididiv import builtin_domain

tracemalloc.start()
domain = builtin_domain("uav", 3)
print(tracemalloc.get_traced_memory()[0])
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

# Thirty uav T=4 MDF candidates (85 nodes each), parsed again from their
# encodings, by the traced allocations the set still holds.
_CANDIDATES_LIVE = """
import tracemalloc
from ididiv import (
    SelectionConfig, builtin_domain, canonical_encode, generate_known_models,
    project_level0, select_topk,
)
from ididiv.selection import candidate_set_from_obj

level0 = project_level0(builtin_domain("uav", 4), "j")
known = generate_known_models(level0, 3, seed=0)
chosen = select_topk(known, level0, SelectionConfig(measure="MDF", k_max=30, seed=0))
obj = {"trees": [canonical_encode(t) for t in chosen.trees], "n_observations": 4}
assert len(obj["trees"]) == 30
tracemalloc.start()
candidates = candidate_set_from_obj(obj)
print(tracemalloc.get_traced_memory()[0])
"""

# The traced peak of `simulate` over 1,000 and then 10,000 tiger T=2 rounds.
_SIMULATE_PEAKS = """
import sys
import tracemalloc
from ididiv import cli

out = sys.argv[1]
assert cli.main(["--out-dir", out, "topk", "--known", "3", "--k-max", "4", "--horizon", "2"]) == 0
peaks = []
for rounds in (1000, 10000):
    tracemalloc.start()
    argv = ["--out-dir", out, "simulate", "--candidates", out + "/candidates.json",
            "--rounds", str(rounds), "--horizon", "2"]
    assert cli.main(argv) == 0
    peaks.append(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
print(peaks[1] - peaks[0])
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
    # The domain holds 0.72 MiB when built, 0.59 MiB of it the joint table.
    # One np.unique over the keys of all 25 action pairs at once peaked at
    # 4.04 MiB; reduced pair by pair the build peaks at 1.28 MiB.
    assert int(_run(_BUILD_TRACED)) < 3 * 2**20


def test_uav_build_peaks_under_one_and_a_half_mib():
    # Dense state-only tables (0.78 MiB) or one int64 key array over all 25
    # action pairs, split by // and %, would take it past the bound.
    assert int(_run(_BUILD_TRACED)) < 1.5 * 2**20


def test_built_uav_domain_holds_under_point_eight_mib():
    # The joint table's 0.59 MiB plus one row per state of each state-only
    # table; dense copies of those four would hold 0.78 MiB more.
    assert int(_run(_LIVE_TRACED)) < 0.8 * 2**20


def _span(a: np.ndarray) -> int:
    """Bytes between the first and last element a view can reach."""
    return sum((n - 1) * abs(st) for n, st in zip(a.shape, a.strides)) + a.itemsize


def test_state_only_uav_tables_hold_one_row_per_state():
    domain = builtin_domain("uav", 3)
    S = len(domain.states)
    for name in ("obs_fn_i", "obs_fn_j", "reward_i", "reward_j"):
        table = getattr(domain, name)
        row = table.shape[-1] if name.startswith("obs") else 1
        assert _span(table) <= S * row * table.itemsize, name
        assert not table.flags.writeable, name


def test_pickled_uav_domain_comes_back_equal_and_read_only():
    domain = builtin_domain("uav", 3)
    back = pickle.loads(pickle.dumps(domain))
    assert back is not domain
    assert serialize_domain(back) == serialize_domain(domain)
    assert back.transition == domain.transition
    for name in ("obs_fn_i", "obs_fn_j", "reward_i", "reward_j", "start"):
        assert np.array_equal(getattr(back, name), getattr(domain, name)), name
        assert not getattr(back, name).flags.writeable, name
    assert dict(back.level0).keys() == {"j"}
    view, again = domain.level0["j"], back.level0["j"]
    for name in ("transition", "obs_fn", "reward", "initial_belief"):
        assert np.array_equal(getattr(again, name), getattr(view, name)), name
        assert not getattr(again, name).flags.writeable, name


def test_pickled_uav_domain_keeps_its_state_only_views():
    # Written dense, the four tables took the pickle to 1.45 MiB, and every
    # pool worker held them dense (obs_fn_i strides (800, 160, 32, 8)).
    domain = builtin_domain("uav", 3)
    data = pickle.dumps(domain)
    assert len(data) < 0.8 * 2**20
    back = pickle.loads(data)
    for name in ("obs_fn_i", "obs_fn_j", "reward_i", "reward_j"):
        table, again = getattr(domain, name), getattr(back, name)
        assert np.array_equal(again, table), name
        assert not again.flags.writeable, name
        assert again.strides == table.strides and 0 in again.strides, name


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


def test_parsed_candidate_set_holds_its_rows_not_nested_nodes():
    # A tree is its preorder row: the set held 32.2 KB.  One node object
    # per tree node, as nested trees were built, held 446.6 KB.
    assert int(_run(_CANDIDATES_LIVE)) < 128 * 2**10


def test_simulate_peak_grows_only_by_the_reward_lists(tmp_path):
    # Each round's steps go to episodes.csv as the round ends.  What grows
    # with the rounds is two float64 arrays of rewards, 16 bytes a round;
    # two lists of float rewards and an array copy of one grew about 55
    # bytes a round, and every round's trace kept until the end 1,511.
    assert int(_run(_SIMULATE_PEAKS, str(tmp_path))) < 9000 * 32
