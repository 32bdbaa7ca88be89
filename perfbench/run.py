"""Benchmark of the diversify-plan-play pipeline, one workload per call.

    python3 perfbench/run.py --workload tiger-oos-grid --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
The workload runs in one fresh worker process with one BLAS thread.  Set-up
time is the median over several further fresh processes, each timed from
its start until its domain and level-0 view are ready.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  Check failures are listed on
standard error.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
SETUP_PROBES = 5
LIMIT_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _probe(workload: str, env: dict, deadline: float) -> float:
    """Seconds from starting a fresh process to its first item being ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "--workload", workload, "--probe"],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe for %s failed" % workload)
    return elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + LIMIT_S

    if not (ROOT / "src" / "ididiv" / "__init__.py").is_file():
        print("no ididiv sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    env = _env()
    setup = []
    try:
        if not args.trace:
            setup = [_probe(args.workload, env, deadline) for _ in range(SETUP_PROBES)]
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    out = OUT / ("%s-%d" % (tag, os.getpid()))
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(out),
             "--spans", str(OUT / ("spans-%s.jsonl.gz" % tag))],
            stdout=subprocess.PIPE, env=env, text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        print("workload %s ran past %.0f s" % (args.workload, LIMIT_S), file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        print("worker exited with %d" % proc.returncode, file=sys.stderr)
        return 3
    res = json.loads(lines[-1])
    for problem in res["problems"]:
        print("CHECK FAILED: %s" % problem, file=sys.stderr)
    metrics = res["metrics"]
    if setup:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
