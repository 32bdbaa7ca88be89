"""Spans around the pipeline's layer boundaries, installed from outside src/.

Each module of ``ididiv`` imports the functions it calls by name, so a call
is traced by replacing that name in the importing module (the "binding").
A span records its name, layer, binding, parent, start and end.  Counts are
read from arguments and return values after the span has ended; the time
spent reading them is recorded as a ``trace`` span beside the traced call,
so that it is not charged to the caller's layer.  Spans stay in memory and
are written out when the run ends.

A layer is a module of ``ididiv``; a span's self time is its duration minus
the time covered by its child spans, so the self times of one item add up
to the item's traced duration exactly when every span nests in its parent.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict

# (importing module, attribute, layer of the function).  Every module
# attribute the pipeline calls across a layer boundary on the three
# workloads, plus the entry points the benchmark calls.
BINDINGS = (
    ("runs", "run_experiment_grid", "runs"),
    ("runs", "run_cell", "runs"),
    ("runs", "builtin_domain", "domains"),
    ("runs", "project_level0", "domains"),
    ("runs", "generate_known_models", "generation"),
    ("runs", "select_topk", "selection"),
    ("runs", "make_candidate_set", "selection"),
    ("runs", "run_experiment", "simulate"),
    ("runs", "canonical_encode", "trees"),
    ("selection", "sample_tree", "generation"),
    ("selection", "convert_to_dbn", "generation"),
    ("selection", "extract_features", "features"),
    ("selection", "diversity_report", "diversity"),
    ("selection", "canonical_encode", "trees"),
    ("simulate", "flatten", "flattening"),
    ("simulate", "solve_exact", "solver"),
    ("simulate", "sample_tree", "generation"),
    ("simulate", "convert_to_dbn", "generation"),
    ("simulate", "extract_features", "features"),
    ("simulate", "project_level0", "domains"),
    ("simulate", "canonical_encode", "trees"),
    ("simulate", "run_episode", "simulate"),
    ("generation", "solve_exact", "solver"),
    ("generation", "canonical_encode", "trees"),
    ("flattening", "solve_exact", "solver"),
    ("diversity", "canonical_encode", "trees"),
    ("cli", "main", "cli"),
    ("cli", "builtin_domain", "domains"),
    ("cli", "project_level0", "domains"),
    ("cli", "generate_known_models", "generation"),
    ("cli", "select_topk", "selection"),
    ("cli", "save_candidate_set", "selection"),
    ("cli", "load_candidate_set", "selection"),
    ("cli", "build_matrix", "features"),
    ("cli", "pivot_decompose", "features"),
    ("cli", "matrix_to_csv", "features"),
    ("cli", "report_to_csv", "diversity"),
    ("cli", "canonical_encode", "trees"),
    ("cli", "write_manifest", "runs"),
    ("cli", "file_sha256", "runs"),
)

# Per-layer metrics with their units, in report order.
PER_LAYER = (
    ("simulate.self_s", "s"),
    ("simulate.episode_s", "s"),
    ("simulate.oos_draws", "count"),
    ("simulate.oos_accept_ratio", "ratio"),
    ("generation.sample_s", "s"),
    ("generation.sample_calls", "count"),
    ("generation.known_s", "s"),
    ("generation.known_solves", "count"),
    ("selection.self_s", "s"),
    ("selection.draws", "count"),
    ("selection.accepts", "count"),
    ("selection.accept_ratio", "ratio"),
    ("diversity.self_s", "s"),
    ("diversity.calls", "count"),
    ("features.self_s", "s"),
    ("features.calls", "count"),
    ("features.matrix_cols", "count"),
    ("trees.encode_s", "s"),
    ("trees.encode_calls", "count"),
    ("flattening.self_s", "s"),
    ("flattening.aug_states", "count"),
    ("flattening.transition_nnz", "count"),
    ("solver.self_s", "s"),
    ("solver.calls", "count"),
    ("solver.flat_solve_s", "s"),
    ("runs.self_s", "s"),
    ("domains.build_s", "s"),
    ("cli.self_s", "s"),
)

# Span record fields.
NAME, LAYER, BINDING, PARENT, START, END, COUNTS = range(7)


def tree_node_count(tree) -> int:
    """Nodes of a policy tree, counted by walking its children."""
    return 1 + sum(tree_node_count(sub) for _, sub in tree.children)


def full_sequences(tree) -> set:
    """Root-to-leaf behaviour sequences of a tree, as flat label tuples."""
    if not tree.children:
        return {(tree.action,)}
    return {
        (tree.action, obs) + rest
        for obs, sub in tree.children
        for rest in full_sequences(sub)
    }


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


# Count readers: (original function, args, kwargs, result) -> counts.

def _count_run_experiment(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"oos_rounds": a["rounds"] if a["true_mode"] == "random-generated" else 0}


def _count_select_topk(fn, args, kwargs, result):
    return {"accepts": sum(p == "generated" for p in result.provenance)}


def _count_extract_features(fn, args, kwargs, result):
    cols = set()
    for tree in _bound(fn, args, kwargs)["trees"]:
        cols |= full_sequences(tree)
    return {"matrix_cols": len(cols)}


def _count_build_matrix(fn, args, kwargs, result):
    return {"matrix_cols": len(result.columns)}


def _count_flatten(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    n_states = len(a["domain"].states)
    expected = n_states * sum(tree_node_count(t) for t in a["candidates"].trees)
    tr = result.model.transition
    if isinstance(tr, tuple):
        nnz = sum(int(m.nnz) for m in tr)
    else:
        nnz = int((tr != 0).sum())
    return {
        "aug_states": len(result.model.states),
        "aug_states_expected": expected,
        "transition_nnz": nnz,
    }


COUNTERS = {
    "simulate.run_experiment": _count_run_experiment,
    "selection.select_topk": _count_select_topk,
    "features.extract_features": _count_extract_features,
    "features.build_matrix": _count_build_matrix,
    "flattening.flatten": _count_flatten,
}


class Tracer:
    """Installs span-recording wrappers and turns spans into metrics."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, name: str, layer: str, binding: str):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            rec = [name, layer, binding, parent, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(idx)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if counter is not None:
                t0 = rec[END]
                rec[COUNTS] = counter(fn, args, kwargs, result)
                spans.append(["trace.count", "trace", binding, parent, t0, clock(), None])
            return result

        return traced

    def install(self) -> None:
        for mod_name, attr, layer in BINDINGS:
            mod = importlib.import_module("ididiv." + mod_name)
            fn = getattr(mod, attr)
            name = "%s.%s" % (layer, fn.__name__)
            setattr(mod, attr, self._wrap(fn, name, layer, mod_name))
            self._patched.append((mod, attr, fn))
        # select_topk looks its measure up in selection.MEASURES at call time.
        measures = importlib.import_module("ididiv.selection").MEASURES
        for key, fn in list(measures.items()):
            measures[key] = self._wrap(fn, "diversity." + fn.__name__, "diversity", "selection")
            self._patched.append((measures, key, fn))

    def uninstall(self) -> None:
        for target, key, fn in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = fn
            else:
                setattr(target, key, fn)
        self._patched.clear()

    def item(self, fn, *args):
        """Run one benchmark item under a root span; returns (result, span index)."""
        wrapped = self._wrap(fn, "bench.item", "bench", "bench")
        idx = len(self.spans)
        return wrapped(*args), idx

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: name, layer, binding, parent, start, end, counts."""
        with gzip.open(path, "wt") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans, first: int, last: int) -> list[float]:
    """Duration of each of spans[first:last] minus the part its children cover.

    Children are clipped to their parent and overlaps are counted once, so
    the self times add up to the root's duration only when every child lies
    inside its parent and apart from its siblings.
    """
    children = defaultdict(list)
    for rec in spans[first:last]:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = []
    for k, rec in enumerate(spans[first:last]):
        covered, reach = 0.0, rec[START]
        for s, e in sorted(children[first + k]):
            s, e = max(s, reach), min(e, rec[END])
            if e > s:
                covered += e - s
                reach = e
        out.append(rec[END] - rec[START] - covered)
    return out


def item_metrics(spans, root: int, last: int) -> tuple[dict, list[str]]:
    """Per-layer figures of the item whose root span is spans[root]."""
    selfs = self_times(spans, root, last)
    duration = spans[root][END] - spans[root][START]
    problems = []
    if abs(sum(selfs) - duration) > 1e-6 * max(1.0, duration):
        problems.append(
            "self times add up to %.9f s, item took %.9f s" % (sum(selfs), duration)
        )

    layer_self = defaultdict(float)
    total = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    for k, rec in enumerate(spans[root:last]):
        name, layer, binding = rec[NAME], rec[LAYER], rec[BINDING]
        dur = rec[END] - rec[START]
        layer_self[layer] += selfs[k]
        total[name] += dur
        total[(name, binding)] += dur
        calls[name] += 1
        calls[(name, binding)] += 1
        calls[layer] += 1
        for key, val in (rec[COUNTS] or {}).items():
            counts[key] += val
        if name == "flattening.flatten" and rec[COUNTS]["aug_states"] != rec[COUNTS]["aug_states_expected"]:
            problems.append(
                "flatten built %d augmented states, candidate nodes x states = %d"
                % (rec[COUNTS]["aug_states"], rec[COUNTS]["aug_states_expected"])
            )

    def ratio(num, den):
        return num / den if den else 0.0

    oos = calls[("generation.sample_tree", "simulate")]
    draws = calls[("generation.sample_tree", "selection")]
    m = {
        "simulate.self_s": layer_self["simulate"],
        "simulate.episode_s": total["simulate.run_episode"],
        "simulate.oos_draws": oos,
        "simulate.oos_accept_ratio": ratio(counts["oos_rounds"], oos),
        "generation.sample_s": total["generation.sample_tree"],
        "generation.sample_calls": calls["generation.sample_tree"],
        "generation.known_s": total["generation.generate_known_models"],
        "generation.known_solves": calls[("solver.solve_exact", "generation")],
        "selection.self_s": layer_self["selection"],
        "selection.draws": draws,
        "selection.accepts": counts["accepts"],
        "selection.accept_ratio": ratio(counts["accepts"], draws),
        "diversity.self_s": layer_self["diversity"],
        "diversity.calls": calls["diversity"],
        "features.self_s": layer_self["features"],
        "features.calls": calls["features"],
        "features.matrix_cols": counts["matrix_cols"],
        "trees.encode_s": total["trees.canonical_encode"],
        "trees.encode_calls": calls["trees.canonical_encode"],
        "flattening.self_s": layer_self["flattening"],
        "flattening.aug_states": counts["aug_states"],
        "flattening.transition_nnz": counts["transition_nnz"],
        "solver.self_s": layer_self["solver"],
        "solver.calls": calls["solver"],
        "solver.flat_solve_s": total[("solver.solve_exact", "simulate")]
        + total[("solver.solve_exact", "flattening")],
        "runs.self_s": layer_self["runs"],
        "domains.build_s": total["domains.builtin_domain"]
        + total["domains.project_level0"],
        "cli.self_s": layer_self["cli"],
    }
    return m, problems


def median_metrics(per_item: list[dict]) -> dict:
    return {
        name: statistics.median(d[name] for d in per_item) for name, _ in PER_LAYER
    }
