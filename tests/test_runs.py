import json
import os

import numpy as np
import pytest

from ididiv import runs
from ididiv import (
    ALGORITHMS,
    DomainValidationError,
    RunManifest,
    builtin_domain,
    builtin_tiger,
    load_domain,
    load_manifest,
    run_experiment_grid,
    run_from_manifest,
    serialize_domain,
    write_manifest,
)
from ididiv.runs import (
    DIVERSITY_HEADER,
    RESULTS_HEADER,
    _stage_seed,
    cell_id,
    file_sha256,
    grid_cells,
    normalize_grid_config,
    run_cell,
)


SMALL_GRID = {
    "horizons": [2],
    "model_counts": [2],
    "expansions": [1],
    "algorithms": ["IDID", "IDID-MDF"],
    "rounds": 4,
    "seeds": [0, 1],
}


class TestConfig:
    def test_defaults_filled(self):
        cfg = normalize_grid_config({})
        assert cfg["domain"] == "tiger"
        assert cfg["horizons"] == [3]
        assert cfg["algorithms"] == list(ALGORITHMS)
        assert cfg["rounds"] == 50

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown grid config keys"):
            normalize_grid_config({"horizonz": [3]})

    def test_bad_algorithm(self):
        with pytest.raises(ValueError):
            normalize_grid_config({"algorithms": ["DQN"]})

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            normalize_grid_config({"true_modes": ["oracle"]})

    def test_empty_axis(self):
        with pytest.raises(ValueError):
            normalize_grid_config({"seeds": []})

    def test_bad_rounds(self):
        with pytest.raises(ValueError):
            normalize_grid_config({"rounds": 0})

    @pytest.mark.parametrize(
        "bad",
        [
            {"domain": "tigr"},
            {"algorithms": []},
            {"true_modes": []},
            {"horizons": [0]},
            {"model_counts": [0]},
            {"expansions": [-1]},
            {"seeds": [-1]},
            {"patience": 0},
            pytest.param({"horizons": 3}, id="horizons-scalar"),
            pytest.param({"seeds": None}, id="seeds-none"),
            pytest.param({"seeds": [0.5]}, id="seeds-float"),
            pytest.param({"rounds": 2.9}, id="rounds-float"),
            pytest.param({"model_counts": [True]}, id="model_counts-bool"),
            pytest.param({"horizons": "3"}, id="horizons-string"),
        ],
        ids=lambda bad: next(iter(bad)),
    )
    def test_unrunnable_config_fails_fast(self, bad):
        # Each of these would otherwise fail cells one by one, or run no cell.
        (key,) = bad
        with pytest.raises(ValueError, match=key):
            normalize_grid_config(bad)


class TestCells:
    def test_product_order(self):
        cfg = normalize_grid_config(SMALL_GRID)
        cells = grid_cells(cfg)
        assert len(cells) == 1 * 1 * 1 * 1 * 2 * 2
        # algorithm varies before seed, per the declared report order
        assert [(c["algorithm"], c["seed"]) for c in cells] == [
            ("IDID", 0),
            ("IDID", 1),
            ("IDID-MDF", 0),
            ("IDID-MDF", 1),
        ]

    def test_cell_id_format(self):
        cfg = normalize_grid_config(SMALL_GRID)
        cid = cell_id(grid_cells(cfg)[0])
        assert cid == "alg=IDID,T=2,M=2,K=1,mode=from-set,seed=0"


class TestStageSeeds:
    def test_known_shared_across_algorithms(self):
        cfg = normalize_grid_config(SMALL_GRID)
        cells = grid_cells(cfg)
        a = next(c for c in cells if c["algorithm"] == "IDID" and c["seed"] == 0)
        b = next(c for c in cells if c["algorithm"] == "IDID-MDF" and c["seed"] == 0)
        assert _stage_seed(a, "known").entropy == _stage_seed(b, "known").entropy
        assert _stage_seed(a, "episodes").entropy == _stage_seed(b, "episodes").entropy
        assert _stage_seed(a, "select").entropy != _stage_seed(b, "select").entropy

    def test_stages_disjoint(self):
        cfg = normalize_grid_config(SMALL_GRID)
        c = grid_cells(cfg)[0]
        assert _stage_seed(c, "known").entropy != _stage_seed(c, "episodes").entropy

    def test_seed_axis_matters(self):
        cfg = normalize_grid_config(SMALL_GRID)
        cells = grid_cells(cfg)
        a = next(c for c in cells if c["algorithm"] == "IDID" and c["seed"] == 0)
        b = next(c for c in cells if c["algorithm"] == "IDID" and c["seed"] == 1)
        assert _stage_seed(a, "known").entropy != _stage_seed(b, "known").entropy


class TestRunCell:
    def test_basic_row(self):
        cfg = normalize_grid_config(SMALL_GRID)
        cell = grid_cells(cfg)[0]
        row = run_cell(cell)
        assert row["domain"] == "tiger"
        assert row["algorithm"] == "IDID"
        assert row["candidates"] == 2
        assert row["rounds"] == 4
        assert np.isfinite(row["mean_reward"])
        assert np.isfinite(row["policy_value"])
        assert row["mdf"] >= row["mdp"] > 0
        assert row["_elapsed"] > 0

    def test_expansion_grows_set(self):
        cfg = normalize_grid_config(SMALL_GRID)
        cells = grid_cells(cfg)
        base = next(c for c in cells if c["algorithm"] == "IDID" and c["seed"] == 0)
        expanded = next(
            c for c in cells if c["algorithm"] == "IDID-MDF" and c["seed"] == 0
        )
        r0 = run_cell(base)
        r1 = run_cell(expanded)
        assert r0["candidates"] == 2
        assert 2 <= r1["candidates"] <= 3
        assert r1["mdf"] >= r0["mdf"]

    def test_deterministic(self):
        cfg = normalize_grid_config(SMALL_GRID)
        cell = grid_cells(cfg)[1]
        a, b = run_cell(cell), run_cell(cell)
        a.pop("_elapsed"), b.pop("_elapsed")
        assert a == b

    def test_random_generated_deterministic(self):
        cell = {
            "domain": "tiger", "horizon": 2, "m": 2, "k": 1,
            "true_mode": "random-generated", "algorithm": "IDID-MDF",
            "seed": 0, "rounds": 4, "patience": 10,
        }
        a, b = run_cell(cell), run_cell(cell)
        a.pop("_elapsed"), b.pop("_elapsed")
        assert a == b
        assert a["true_mode"] == "random-generated"

    def test_union_same_from_every_arm(self):
        # Each arm rebuilds all three candidate sets to derive the shared
        # exclusion; the rebuild must not depend on which arm is running.
        from ididiv import canonical_encode, generate_known_models, project_level0
        from ididiv.domains import builtin_domain
        from ididiv.runs import ALGORITHMS, _candidates_for

        cell = {
            "domain": "tiger", "horizon": 2, "m": 2, "k": 1,
            "true_mode": "random-generated", "algorithm": "IDID",
            "seed": 3, "rounds": 4, "patience": 10,
        }
        domain = builtin_domain("tiger", 2)
        level0 = project_level0(domain, "j")
        known = generate_known_models(level0, 2, seed=_stage_seed(cell, "known"))
        for target in ALGORITHMS:
            sets = []
            for arm in ("IDID", "IDID-MDP", "IDID-MDF"):
                cs = _candidates_for({**cell, "algorithm": arm}, target, known, level0)
                sets.append(frozenset(canonical_encode(t) for t in cs.trees))
            assert sets[0] == sets[1] == sets[2]


class TestGrid:
    def test_outputs_written(self, tmp_path):
        manifest = run_experiment_grid(SMALL_GRID, tmp_path)
        results = (tmp_path / "results.csv").read_text()
        diversity = (tmp_path / "diversity.csv").read_text()
        lines = results.strip().split("\n")
        assert lines[0] == RESULTS_HEADER
        assert len(lines) == 1 + 4
        assert diversity.strip().split("\n")[0] == DIVERSITY_HEADER
        assert (tmp_path / "manifest.json").exists()
        assert manifest.errors == []
        assert set(manifest.timings["cells"]) == {
            cell_id(c) for c in grid_cells(normalize_grid_config(SMALL_GRID))
        }

    def test_no_timestamps_in_csv(self, tmp_path):
        run_experiment_grid(SMALL_GRID, tmp_path)
        for name in ("results.csv", "diversity.csv"):
            text = (tmp_path / name).read_text()
            assert "20" + "26" not in text  # no dates
            for token in ("time", "elapsed", "seconds"):
                assert token not in text

    def test_rerun_byte_identical(self, tmp_path):
        run_experiment_grid(SMALL_GRID, tmp_path / "a")
        run_from_manifest(tmp_path / "a" / "manifest.json", tmp_path / "b")
        for name in ("results.csv", "diversity.csv"):
            assert file_sha256(tmp_path / "a" / name) == file_sha256(
                tmp_path / "b" / name
            )

    def test_parallel_matches_inline(self, tmp_path):
        run_experiment_grid(SMALL_GRID, tmp_path / "one", workers=1)
        run_experiment_grid(SMALL_GRID, tmp_path / "two", workers=2)
        for name in ("results.csv", "diversity.csv"):
            assert (tmp_path / "one" / name).read_text() == (
                tmp_path / "two" / name
            ).read_text()

    def test_manifest_roundtrip(self, tmp_path):
        run_experiment_grid(SMALL_GRID, tmp_path)
        m = load_manifest(tmp_path / "manifest.json")
        assert m.command == "experiment"
        assert m.config == normalize_grid_config(SMALL_GRID)
        assert m.outputs == {"results": "results.csv", "diversity": "diversity.csv"}
        assert "total_seconds" in m.timings

    def test_manifest_records_blas_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        run_experiment_grid(dict(SMALL_GRID, algorithms=["IDID"], seeds=[0]), tmp_path)
        m = load_manifest(tmp_path / "manifest.json")
        assert set(m.threads) == {
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "cpu_count"
        }
        assert m.threads["OMP_NUM_THREADS"] == "1"
        assert m.threads["MKL_NUM_THREADS"] is None
        assert m.threads["cpu_count"] == os.cpu_count()

    def test_manifest_without_threads_still_replays(self, tmp_path):
        run_experiment_grid(dict(SMALL_GRID, algorithms=["IDID"], seeds=[0]), tmp_path / "a")
        path = tmp_path / "a" / "manifest.json"
        obj = json.loads(path.read_text())
        del obj["threads"]
        path.write_text(json.dumps(obj))
        assert load_manifest(path).threads == {}
        run_from_manifest(path, tmp_path / "b")
        for name in ("results.csv", "diversity.csv"):
            assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()

    def test_rerun_rejects_other_commands(self, tmp_path):
        m = RunManifest(command="solve", config={}, seed=0)
        p = write_manifest(m, tmp_path)
        with pytest.raises(ValueError, match="not an experiment"):
            run_from_manifest(p, tmp_path / "out")

    def test_replay_refuses_changed_domain_file(self, tmp_path):
        dom = tmp_path / "dom.json"
        dom.write_text(serialize_domain(builtin_tiger(2)))
        grid = dict(SMALL_GRID, domain=str(dom), seeds=[0])
        m = run_experiment_grid(grid, tmp_path / "a")
        assert m.errors == []
        assert m.input_hashes["domain"] == file_sha256(dom)
        run_from_manifest(tmp_path / "a" / "manifest.json", tmp_path / "b")
        for name in ("results.csv", "diversity.csv"):
            assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()

        obj = json.loads(dom.read_text())
        obj["reward_i"][0][0][0] += 1.0
        dom.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="domain file"):
            run_from_manifest(tmp_path / "a" / "manifest.json", tmp_path / "c")
        assert not (tmp_path / "c").exists()

    def test_replay_refuses_other_tool_version(self, tmp_path):
        run_experiment_grid(dict(SMALL_GRID, algorithms=["IDID"], seeds=[0]), tmp_path / "a")
        path = tmp_path / "a" / "manifest.json"
        obj = json.loads(path.read_text())
        obj["tool_version"] = "0.0.1"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="tool version"):
            run_from_manifest(path, tmp_path / "b")
        assert not (tmp_path / "b").exists()

    def test_cells_share_one_domain(self, tmp_path, tiger_builds):
        grid = dict(SMALL_GRID, algorithms=list(ALGORITHMS), seeds=[0])
        run_experiment_grid(grid, tmp_path / "fresh")
        assert tiger_builds == [2]  # one build for all three cells
        held = builtin_domain("tiger", 2)
        del tiger_builds[:]
        run_experiment_grid(grid, tmp_path / "held")
        assert tiger_builds == []  # the caller's domain is reused
        assert held.horizon == 2
        for name in ("results.csv", "diversity.csv"):
            fresh = (tmp_path / "fresh" / name).read_bytes()
            assert (tmp_path / "held" / name).read_bytes() == fresh

    def test_domain_file_read_once(self, tmp_path, monkeypatch):
        path = tmp_path / "tiger.json"
        path.write_text(serialize_domain(builtin_tiger(3)))
        reads = []

        def counting(source):
            reads.append(source)
            return load_domain(source)

        monkeypatch.setattr(runs, "load_domain", counting)
        grid = dict(SMALL_GRID, domain=str(path), algorithms=list(ALGORITHMS), seeds=[0])
        for workers in (1, 2):
            m = run_experiment_grid(grid, tmp_path / str(workers), workers=workers)
            assert m.errors == [] and len(m.timings["cells"]) == 3
        assert reads == [str(path)] * 2
        for name in ("results.csv", "diversity.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_bad_domain_file_fails_before_writing(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x"}))
        with pytest.raises(DomainValidationError, match="missing"):
            run_experiment_grid(dict(SMALL_GRID, domain=str(path)), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_cell_failure_isolated(self, tmp_path):
        # A model count the generator cannot satisfy fails that cell alone.
        bad = dict(SMALL_GRID)
        bad["model_counts"] = [2, 500]
        manifest = run_experiment_grid(bad, tmp_path)
        assert len(manifest.errors) == 4
        for e in manifest.errors:
            assert "M=500" in e["cell"]
        lines = (tmp_path / "results.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 4  # the good cells still reported


class TestManifestIo:
    def test_write_load(self, tmp_path):
        m = RunManifest(
            command="topk",
            config={"m": 3},
            seed=7,
            input_hashes={"domain": "ab" * 32},
            outputs={"set": "set.json"},
            timings={"total_seconds": 0.5},
        )
        p = write_manifest(m, tmp_path)
        back = load_manifest(p)
        assert back == m

    def test_json_is_stable(self, tmp_path):
        m = RunManifest(command="topk", config={"m": 3}, seed=7)
        (tmp_path / "1").mkdir()
        (tmp_path / "2").mkdir()
        p1 = write_manifest(m, tmp_path / "1")
        p2 = write_manifest(m, tmp_path / "2")
        assert p1.read_text() == p2.read_text()
        obj = json.loads(p1.read_text())
        assert obj["tool_version"] == "0.1.0"

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda obj: obj.update(bogus=1), "unexpected keyword argument 'bogus'"),
            (lambda obj: obj.pop("command"), "missing 1 required positional argument: 'command'"),
        ],
        ids=["unknown", "missing"],
    )
    def test_malformed_manifest_named(self, tmp_path, edit, named):
        p = write_manifest(RunManifest(command="experiment", config={}, seed=None), tmp_path)
        obj = json.loads(p.read_text())
        edit(obj)
        p.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=named):
            load_manifest(p)
        with pytest.raises(ValueError, match=named):
            run_from_manifest(p, tmp_path / "replay")

    def test_file_sha256(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"abc")
        assert file_sha256(p) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )
