"""Span bookkeeping on hand-built spans, and the wrappers on a tiny grid."""

import pytest

import tracer
from tracer import Tracer, item_metrics, self_times


def _span(name, layer, parent, start, end, binding="x", counts=None):
    return [name, layer, binding, parent, start, end, counts]


SPANS = [
    _span("bench.item", "bench", -1, 0.0, 10.0),
    _span("selection.select_topk", "selection", 0, 1.0, 5.0, counts={"accepts": 2}),
    _span("trees.canonical_encode", "trees", 1, 2.0, 3.0),
    _span("generation.sample_tree", "generation", 1, 3.0, 3.5, binding="selection"),
    _span("solver.solve_exact", "solver", 0, 6.0, 9.0, binding="simulate"),
]


def test_self_times_subtract_children():
    # root 10 - (4 + 3); select_topk 4 - (1 + 0.5)
    assert self_times(SPANS, 0, len(SPANS)) == [3.0, 2.5, 1.0, 0.5, 3.0]


def test_item_metrics_by_hand():
    m, problems = item_metrics(SPANS, 0, len(SPANS))
    assert problems == []
    assert m["selection.self_s"] == 2.5
    assert m["trees.encode_s"] == 1.0 and m["trees.encode_calls"] == 1
    assert m["selection.draws"] == 1 and m["selection.accepts"] == 2
    assert m["selection.accept_ratio"] == 2.0
    assert m["solver.flat_solve_s"] == 3.0 and m["solver.calls"] == 1
    assert m["simulate.oos_draws"] == 0 and m["simulate.oos_accept_ratio"] == 0.0
    assert set(m) == {name for name, _ in tracer.PER_LAYER}


def test_item_metrics_flags_wrong_augmented_state_count():
    counts = {"aug_states": 10, "aug_states_expected": 12, "transition_nnz": 5}
    spans = SPANS[:1] + [_span("flattening.flatten", "flattening", 0, 1.0, 2.0, counts=counts)]
    _, problems = item_metrics(spans, 0, len(spans))
    assert problems and "12" in problems[0]


def test_item_metrics_flags_spans_that_overlap_their_parent():
    spans = SPANS[:1] + [_span("solver.solve_exact", "solver", 0, 5.0, 12.0)]
    _, problems = item_metrics(spans, 0, len(spans))
    assert problems and "self times" in problems[0]


def test_tracer_on_a_tiny_grid(tmp_path):
    from ididiv import runs, selection, simulate

    originals = (runs.run_cell, simulate.sample_tree, dict(selection.MEASURES))
    config = {
        "domain": "tiger", "horizons": [2], "model_counts": [2], "expansions": [1],
        "true_modes": ["random-generated"], "rounds": 3, "seeds": [0],
    }
    t = Tracer()
    t.install()
    try:
        manifest, root = t.item(lambda: runs.run_experiment_grid(config, tmp_path))
    finally:
        t.uninstall()
    assert not manifest.errors
    assert (runs.run_cell, simulate.sample_tree, dict(selection.MEASURES)) == originals

    m, problems = item_metrics(t.spans, root, len(t.spans))
    assert problems == []
    selfs = self_times(t.spans, root, len(t.spans))
    assert sum(selfs) == pytest.approx(t.spans[root][5] - t.spans[root][4], abs=1e-9)
    assert m["simulate.oos_draws"] >= 3 * 3  # three cells of three rounds each
    assert m["flattening.aug_states"] > 0 and m["solver.calls"] >= 3
    assert m["diversity.calls"] > 0 and m["trees.encode_calls"] > 0
