import hashlib
import json
import re
import subprocess
import sys

import pytest

from ididiv import (
    cli,
    selection,
    load_candidate_set,
    load_manifest,
    make_candidate_set,
    run_experiment_grid,
    runs,
    save_candidate_set,
    serialize_domain,
    builtin_tiger,
    TreeShapeError,
)
from ididiv.cli import main
from ididiv.trees import canonical_parse
from conftest import _peer_trees_t2, _rewriting


GRID = {
    "horizons": [2],
    "model_counts": [2],
    "expansions": [1],
    "algorithms": ["IDID"],
    "rounds": 3,
    "seeds": [0],
}


def _run(argv):
    return main([str(a) for a in argv])


class TestSolve:
    def test_level0_policy_written(self, tmp_path, capsys):
        rc = _run(["--out-dir", tmp_path, "solve", "--agent", "j", "--horizon", "2"])
        assert rc == 0
        obj = json.loads((tmp_path / "policy_j.json").read_text())
        assert obj["agent"] == "j"
        assert obj["horizon"] == 2
        tree = canonical_parse(obj["tree"])
        assert tree.depth == 2
        m = load_manifest(tmp_path / "manifest.json")
        assert m.command == "solve"
        assert m.outputs == {"policy": "policy_j.json"}
        assert "solved" in capsys.readouterr().out

    def test_json_domain_file(self, tmp_path):
        dom_path = tmp_path / "dom.json"
        dom_path.write_text(serialize_domain(builtin_tiger(2)))
        rc = _run(
            ["--out-dir", tmp_path / "out", "--domain", dom_path, "solve", "--horizon", "2"]
        )
        assert rc == 0
        m = load_manifest(tmp_path / "out" / "manifest.json")
        assert "domain" in m.input_hashes


class TestInputHashes:
    # A manifest records the bytes a run parsed, even when the file changes
    # while the run is going on.
    def test_cli_hashes_the_domain_bytes_it_solved(self, tmp_path, monkeypatch):
        dom = tmp_path / "dom.json"
        dom.write_text(serialize_domain(builtin_tiger(2)))
        parsed = _rewriting(monkeypatch, cli, "solve_exact", dom)
        rc = _run(["--out-dir", tmp_path / "out", "--domain", dom, "solve", "--horizon", "2"])
        assert rc == 0
        assert hashlib.sha256(dom.read_bytes()).hexdigest() != parsed
        m = load_manifest(tmp_path / "out" / "manifest.json")
        assert m.input_hashes == {"domain": parsed}

    def test_grid_hashes_the_domain_bytes_it_ran(self, tmp_path, monkeypatch):
        dom = tmp_path / "dom.json"
        dom.write_text(serialize_domain(builtin_tiger(2)))
        parsed = _rewriting(monkeypatch, runs, "run_experiment", dom)
        m = run_experiment_grid(dict(GRID, domain=str(dom)), tmp_path / "out")
        assert m.errors == []
        assert hashlib.sha256(dom.read_bytes()).hexdigest() != parsed
        assert m.input_hashes == {"domain": parsed}

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["features", "--trees"], "trees"),
            (["solve-idid", "--horizon", "2", "--candidates"], "candidates"),
            (["simulate", "--rounds", "2", "--horizon", "2", "--candidates"], "candidates"),
        ],
        ids=["features", "solve-idid", "simulate"],
    )
    def test_cli_hashes_the_candidate_bytes_it_parsed(self, tmp_path, monkeypatch, argv, key):
        # The file holds two trees; a second read through load_candidate_set
        # would find it rewritten with three.
        trees = _peer_trees_t2()
        path = tmp_path / "cands.json"
        digests = {}
        for n in (3, 2):
            save_candidate_set(make_candidate_set(trees[:n], 2), path)
            digests[n] = hashlib.sha256(path.read_bytes()).hexdigest()
        make, load = selection.make_candidate_set, cli.load_candidate_set
        parsed = []

        def recording_make(parsed_trees, *args, **kwargs):
            parsed.append(digests[len(parsed_trees)])
            return make(parsed_trees, *args, **kwargs)

        def rewrite_then_load(p):
            save_candidate_set(make(trees, 2), path)
            return load(p)

        monkeypatch.setattr(selection, "make_candidate_set", recording_make)
        monkeypatch.setattr(cli, "load_candidate_set", rewrite_then_load)
        assert _run(["--out-dir", tmp_path / "out", *argv, path]) == 0
        m = load_manifest(tmp_path / "out" / "manifest.json")
        assert parsed == [m.input_hashes[key]]


class TestTopkFeaturesChain:
    def test_pipeline_files(self, tmp_path, capsys):
        rc = _run(
            [
                "--out-dir",
                tmp_path,
                "--seed",
                "1",
                "topk",
                "--horizon",
                "2",
                "--known",
                "2",
                "--k-max",
                "4",
            ]
        )
        assert rc == 0
        cs = load_candidate_set(tmp_path / "candidates.json")
        assert len(cs.trees) >= 2
        assert (tmp_path / "diversity.csv").read_text().startswith("depth,")
        m = load_manifest(tmp_path / "manifest.json")
        assert m.command == "topk"
        assert m.timings["m"] == 2
        assert m.timings["measure"] == "MDF"
        assert "generate_seconds" in m.timings

        rc = _run(
            [
                "--out-dir",
                tmp_path / "feat",
                "features",
                "--trees",
                tmp_path / "candidates.json",
            ]
        )
        assert rc == 0
        feats = json.loads((tmp_path / "feat" / "features.json").read_text())
        assert feats["trees"] == len(cs.trees)
        assert feats["rank"] >= 1
        assert len(feats["pivot_sequences"]) == feats["rank"]
        matrix_text = (tmp_path / "feat" / "behavior_matrix.csv").read_text()
        assert matrix_text.startswith("tree,")
        fm = load_manifest(tmp_path / "feat" / "manifest.json")
        assert "trees" in fm.input_hashes

    def test_solve_idid_and_simulate(self, tmp_path):
        _run(
            [
                "--out-dir",
                tmp_path,
                "topk",
                "--horizon",
                "2",
                "--known",
                "2",
                "--k-max",
                "3",
            ]
        )
        rc = _run(
            [
                "--out-dir",
                tmp_path / "plan",
                "solve-idid",
                "--horizon",
                "2",
                "--candidates",
                tmp_path / "candidates.json",
            ]
        )
        assert rc == 0
        pol = json.loads((tmp_path / "plan" / "policy_idid.json").read_text())
        assert pol["augmented_states"] > 0
        assert canonical_parse(pol["tree"]).depth == 2

        rc = _run(
            [
                "--out-dir",
                tmp_path / "sim",
                "simulate",
                "--horizon",
                "2",
                "--candidates",
                tmp_path / "candidates.json",
                "--rounds",
                "4",
            ]
        )
        assert rc == 0
        stats = json.loads((tmp_path / "sim" / "stats.json").read_text())
        assert stats["rounds"] == 4
        lines = (tmp_path / "sim" / "episodes.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 4 * 2


class TestExperiment:
    def test_grid_and_replay(self, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(GRID))
        rc = _run(
            ["--out-dir", tmp_path / "a", "experiment", "--config", cfg]
        )
        assert rc == 0
        m = load_manifest(tmp_path / "a" / "manifest.json")
        assert m.input_hashes == {"config": hashlib.sha256(cfg.read_bytes()).hexdigest()}

        rc = _run(
            [
                "--out-dir",
                tmp_path / "b",
                "experiment",
                "--from-manifest",
                tmp_path / "a" / "manifest.json",
            ]
        )
        assert rc == 0
        assert (tmp_path / "a" / "results.csv").read_text() == (
            tmp_path / "b" / "results.csv"
        ).read_text()

    def test_flags_fill_missing_config_keys(self, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({k: v for k, v in GRID.items() if k != "seeds"}))
        rc = _run(
            ["--out-dir", tmp_path / "a", "--domain", "uav", "--seed", 7,
             "experiment", "--config", cfg]
        )
        assert rc == 0
        m = load_manifest(tmp_path / "a" / "manifest.json")
        assert (m.config["domain"], m.config["seeds"]) == ("uav", [7])

        # Keys the config sets win over the flags.
        cfg.write_text(json.dumps(dict(GRID, domain="tiger", seeds=[1])))
        rc = _run(
            ["--out-dir", tmp_path / "b", "--domain", "uav", "--seed", 7,
             "experiment", "--config", cfg]
        )
        assert rc == 0
        m = load_manifest(tmp_path / "b" / "manifest.json")
        assert (m.config["domain"], m.config["seeds"]) == ("tiger", [1])

    def test_failures_exit_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        bad = dict(GRID)
        bad["model_counts"] = [400]
        cfg.write_text(json.dumps(bad))
        rc = _run(["--out-dir", tmp_path / "out", "experiment", "--config", cfg])
        assert rc == 1
        captured = capsys.readouterr()
        assert "failed" in captured.err


class TestParsing:
    @pytest.mark.parametrize("text", ["[1, 2]", '"grid"', "3"])
    def test_config_that_is_not_an_object_is_named(self, tmp_path, text):
        cfg = tmp_path / "grid.json"
        cfg.write_text(text)
        with pytest.raises(ValueError, match="grid.json: a grid config is a JSON object"):
            _run(["--out-dir", tmp_path / "out", "experiment", "--config", cfg])
        assert not (tmp_path / "out").exists()

    def test_candidate_file_with_a_bad_tree_is_named(self, tmp_path):
        path = tmp_path / "candidates.json"
        path.write_text(json.dumps({"trees": ["x"], "n_observations": 2}))
        with pytest.raises(TreeShapeError, match="'x' is not a depth"):
            _run(["--out-dir", tmp_path / "out", "features", "--trees", path])

    @pytest.mark.parametrize(
        "obj, message",
        [
            ([1, 2], "a candidate file is a JSON object, not a list"),
            ({"n_observations": 2}, "a candidate file needs 'trees'"),
            ({"trees": ["1;;A"]}, "a candidate file needs 'n_observations'"),
            ({"trees": "1;;A", "n_observations": 2}, "'trees' is a list of tree encodings"),
            ({"trees": ["1;;A"], "n_observations": "two"}, "n_observations must be an int"),
            (
                {"trees": ["1;;A", "1;;B"], "n_observations": 2, "prior": [1.0]},
                r"prior shape \(1,\) for 2 trees",
            ),
            ({"trees": ["1;;A"], "n_observations": 2, "trace": [[1]]}, "not enough values"),
            (
                {"trees": ["1;;A"], "n_observations": 2, "prior": [float("nan")]},
                "prior must be a distribution",
            ),
        ],
        ids=[
            "list", "no-trees", "no-n_observations", "trees-string",
            "n_observations-string", "short-prior", "short-trace", "nan-prior",
        ],
    )
    def test_candidate_file_without_its_keys_is_named(self, tmp_path, obj, message):
        path = tmp_path / "candidates.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="candidates.json: " + message):
            _run(["--out-dir", tmp_path / "out", "features", "--trees", path])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--domain", "{}", "solve"],
            ["features", "--trees", "{}"],
            ["experiment", "--config", "{}"],
            ["experiment", "--from-manifest", "{}"],
        ],
        ids=["domain", "candidates", "config", "manifest"],
    )
    def test_input_that_is_not_json_is_named(self, tmp_path, argv):
        path = tmp_path / "input.json"
        path.write_text("{trees: 1}")
        argv = [a.format(path) for a in argv]
        with pytest.raises(ValueError, match="^" + re.escape(str(path)) + ": ") as info:
            _run(["--out-dir", tmp_path / "out", *argv])
        assert isinstance(info.value.__cause__, json.JSONDecodeError)

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_domain_errors(self, tmp_path):
        with pytest.raises(ValueError, match="neither a builtin"):
            _run(["--out-dir", tmp_path / "out", "--domain", "no-such", "solve"])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "topk"])
    def test_inline_json_domain_refused(self, tmp_path, command):
        # --domain names a builtin or a file; JSON text is refused before
        # any output is written, not after, when its manifest hashes inputs.
        text = serialize_domain(builtin_tiger(2))
        with pytest.raises(ValueError, match="neither a builtin"):
            _run(["--out-dir", tmp_path / "out", "--domain", text, command])
        assert not (tmp_path / "out").exists()

    def test_module_entrypoint(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "ididiv",
                "--out-dir",
                str(tmp_path),
                "solve",
                "--horizon",
                "2",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "policy_j.json").exists()


class TestFeaturesOnHandSet(object):
    def test_rank_of_saved_set(self, tmp_path, fig_trees):
        cs = make_candidate_set(fig_trees, 2)
        save_candidate_set(cs, tmp_path / "set.json")
        rc = _run(
            ["--out-dir", tmp_path / "out", "features", "--trees", tmp_path / "set.json"]
        )
        assert rc == 0
        feats = json.loads((tmp_path / "out" / "features.json").read_text())
        assert feats["rank"] == 4
        assert feats["sequences"] == 12
