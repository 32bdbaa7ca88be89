"""One workload in one fresh process: set-up, the timed items, the checks.

Started by run.py, which sets one BLAS thread and puts ``src`` on the
import path.  With ``--probe`` the process only sets up, prints ``ready``
and exits, so that run.py can time set-up from a fresh process.  Otherwise
it walks the workload's fixed item list in whole passes: at least one, and
more only while another pass still fits in ``--seconds``.  With
``--trace 1`` every item runs twice in a row, untraced and then traced, and
the traced copy's outputs must match the untraced ones byte for byte.
The last line of standard output is one JSON object with the figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
from tracer import PER_LAYER, Tracer, item_metrics, median_metrics
from workloads import MEASURES, WORKLOADS, check_item, check_run, run_item, setup


def _timed(fn, *args) -> dict:
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        ok = bool(fn(*args))
    except Exception:  # an item that raises is counted as failed; the run goes on
        traceback.print_exc()
        ok = False
    return {"wall": time.perf_counter() - w0, "cpu": time.process_time() - c0, "ok": ok}


def _checked(check, *args) -> list[str]:
    try:
        return check(*args)
    except Exception as exc:  # unreadable output is a failed check, not a crash
        traceback.print_exc()
        return ["%s raised %s: %s" % (check.__name__, type(exc).__name__, exc)]


def _traced(tracer: Tracer, wl, item: int, out: Path) -> tuple[dict, int, int]:
    tracer.install()
    first = len(tracer.spans)
    try:
        ok, root = tracer.item(run_item, wl, item, out)
    except Exception:
        traceback.print_exc()
        ok, root = False, first
    finally:
        tracer.uninstall()
    rec = tracer.spans[root]
    return {"wall": rec[5] - rec[4], "ok": bool(ok)}, root, len(tracer.spans)


def _output_files(wl) -> list[str]:
    if wl.grid:
        return ["results.csv", "diversity.csv"]
    return [
        "%s/%s" % (m, f)
        for m in MEASURES
        for f in ("candidates.json", "diversity.csv", "features.json", "behavior_matrix.csv")
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    domain, level0 = setup(wl)
    if args.probe:
        print("ready", flush=True)
        return 0

    tracer = Tracer() if args.trace else None
    untraced, traced, layer_items, problems = [], [], [], []
    outputs: dict[int, Path] = {}
    begin = time.perf_counter()
    npass = 0
    while True:
        pass_start = time.perf_counter()
        for item in wl.items:
            out = args.out / ("p%d-i%d" % (npass, item))
            untraced.append(_timed(run_item, wl, item, out))
            if untraced[-1]["ok"]:
                outputs.setdefault(item, out)
            if tracer is not None:
                t_out = args.out / ("p%d-i%d-traced" % (npass, item))
                rec, root, last = _traced(tracer, wl, item, t_out)
                traced.append(rec)
                metrics, trouble = item_metrics(tracer.spans, root, last)
                layer_items.append(metrics)
                problems += trouble
                if rec["ok"] and untraced[-1]["ok"]:
                    problems += checks.same_csvs(out, t_out, _output_files(wl))
        npass += 1
        now = time.perf_counter()
        if now - begin + (now - pass_start) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for item, out in outputs.items():
        problems += ["item %d: %s" % (item, p) for p in _checked(check_item, wl, domain, out)]
    problems += _checked(check_run, wl, domain, level0, args.seed, outputs, args.out)

    records = untraced + traced
    if tracer is None:
        metrics = {"peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        tracer.write(args.spans)
        med = median_metrics(layer_items)
        metrics = {name: (med[name], unit) for name, unit in PER_LAYER}
        untraced_p50 = statistics.median(r["wall"] for r in untraced)
        metrics["trace.item_p50_s"] = (untraced_p50, "s")
        metrics["trace.item_cpu_p50_s"] = (statistics.median(r["cpu"] for r in untraced), "s")
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall"] for r in traced) - untraced_p50, "s"
        )
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
