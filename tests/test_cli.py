import dataclasses
import hashlib
import json
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from ididiv import (
    ExperimentStats,
    cli,
    selection,
    load_candidate_set,
    load_manifest,
    make_candidate_set,
    run_experiment,
    run_experiment_grid,
    runs,
    save_candidate_set,
    serialize_domain,
    builtin_domain,
    TreeShapeError,
)
from ididiv.cli import main
from ididiv.domains import domain_to_obj
from ididiv.trees import _json_text, canonical_parse
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


def _tiger2_obj(**keys):
    """The tiger T=2 domain file's mapping, with ``keys`` replaced."""
    return dict(domain_to_obj(builtin_domain("tiger", 2)), **keys)


def _candidates_obj(**keys):
    """A two-tree candidate file's mapping, with ``keys`` replaced."""
    return dict({"trees": ["1;;A", "1;;B"], "n_observations": 2}, **keys)


def _tiger2_edit(key, index, value):
    """The tiger T=2 domain file's mapping with obj[key][index...] = value."""
    obj = _tiger2_obj()
    *path, last = index
    inner = obj[key]
    for k in path:
        inner = inner[k]
    inner[last] = value
    return obj


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
        dom_path.write_text(serialize_domain(builtin_domain("tiger", 2)))
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
        dom.write_text(serialize_domain(builtin_domain("tiger", 2)))
        parsed = _rewriting(monkeypatch, cli, "solve_exact", dom)
        rc = _run(["--out-dir", tmp_path / "out", "--domain", dom, "solve", "--horizon", "2"])
        assert rc == 0
        assert hashlib.sha256(dom.read_bytes()).hexdigest() != parsed
        m = load_manifest(tmp_path / "out" / "manifest.json")
        assert m.input_hashes == {"domain": parsed}

    def test_grid_hashes_the_domain_bytes_it_ran(self, tmp_path, monkeypatch):
        dom = tmp_path / "dom.json"
        dom.write_text(serialize_domain(builtin_domain("tiger", 2)))
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
        # The file holds two trees and is rewritten with three as soon as
        # they are parsed, so a second read, or a hash taken after the
        # parse, would see the three-tree bytes.
        trees = _peer_trees_t2()
        path = tmp_path / "cands.json"
        digests = {}
        for n in (3, 2):
            save_candidate_set(make_candidate_set(trees[:n], 2), path)
            digests[n] = hashlib.sha256(path.read_bytes()).hexdigest()
        make = selection.make_candidate_set
        parsed = []

        def recording_make_then_rewrite(parsed_trees, *args, **kwargs):
            parsed.append(digests[len(parsed_trees)])
            save_candidate_set(make(trees, 2), path)
            return make(parsed_trees, *args, **kwargs)

        monkeypatch.setattr(selection, "make_candidate_set", recording_make_then_rewrite)
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
        assert m.config["known"] == 2
        assert m.config["measure"] == "MDF"
        # Timings hold only seconds; the flags are in the config.
        assert set(m.timings) == {"generate_seconds", "select_seconds"}

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
        # Each peer tree has 3 nodes and the domain 2 states.
        assert pol["augmented_states"] == 6 * pol["candidates"]
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

    @pytest.mark.parametrize("mode", ["from-set", "random-generated"])
    def test_stats_json_is_the_experiment_stats(self, tmp_path, mode):
        # stats.json holds the ExperimentStats fields plus true_mode, in the
        # bytes of the dict that was once written out field by field.
        _run(["--out-dir", tmp_path, "topk", "--horizon", 2, "--known", 2, "--k-max", 3])
        cands = tmp_path / "candidates.json"
        rc = _run(
            ["--out-dir", tmp_path / "sim", "--seed", 3, "simulate", "--horizon", 2,
             "--rounds", 5, "--true-mode", mode, "--candidates", cands]
        )
        assert rc == 0
        text = (tmp_path / "sim" / "stats.json").read_text()
        fields = {f.name for f in dataclasses.fields(ExperimentStats)}
        assert set(json.loads(text)) == fields | {"true_mode"}

        stats = run_experiment(
            builtin_domain("tiger", 2), load_candidate_set(cands), true_mode=mode, rounds=5, seed=3
        )
        oracle = {
            "rounds": stats.rounds,
            "true_mode": mode,
            "mean_reward_i": stats.mean_reward_i,
            "reward_variance_i": stats.reward_variance_i,
            "mean_reward_j": stats.mean_reward_j,
            "policy_value": stats.policy_value,
        }
        assert text == _json_text(oracle)

    def test_simulate_against_deeper_candidates(self, tmp_path):
        # Depth-3 candidates on a T=2 domain, the peer drawn outside them.
        _run(["--out-dir", tmp_path, "topk", "--horizon", 3, "--known", 3, "--k-max", 6])
        rc = _run(
            ["--out-dir", tmp_path / "sim", "simulate", "--horizon", 2, "--rounds", 3,
             "--true-mode", "random-generated", "--candidates", tmp_path / "candidates.json"]
        )
        assert rc == 0
        lines = (tmp_path / "sim" / "episodes.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 3 * 2

    def test_simulate_refused_set_writes_no_episodes(self, tmp_path):
        # uav candidates branch on uav observations, so tiger cannot plan
        # against them; the refusal comes before any round is played.
        _run(["--domain", "uav", "--out-dir", tmp_path, "topk", "--horizon", 2,
              "--known", 2, "--k-max", 3])
        with pytest.raises(TreeShapeError, match="tree branches on"):
            _run(["--out-dir", tmp_path / "sim", "simulate", "--horizon", 2,
                  "--candidates", tmp_path / "candidates.json"])
        assert not (tmp_path / "sim").exists()

    def test_topk_cap_below_the_known_set_is_refused(self, tmp_path):
        # Five distinct known trees cannot fit a cap of three; the run exits
        # non-zero, naming both numbers, and makes no output directory.
        argv = ["--out-dir", str(tmp_path / "out"), "topk", "--known", "5", "--k-max", "3"]
        proc = subprocess.run(
            [sys.executable, "-m", "ididiv", *argv], capture_output=True, text=True
        )
        assert proc.returncode != 0
        assert "k_max 3 is below the 5 distinct known trees" in proc.stderr
        assert not (tmp_path / "out").exists()
        with pytest.raises(ValueError, match="count must be >= 1, got 0"):
            _run(["--out-dir", tmp_path / "none", "topk", "--known", 0])
        assert not (tmp_path / "none").exists()


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

    def test_manifests_record_versions(self, tmp_path):
        want = {"numpy": np.__version__, "python": "%d.%d.%d" % sys.version_info[:3]}
        assert _run(["--out-dir", tmp_path / "solve", "solve", "--horizon", "2"]) == 0
        assert load_manifest(tmp_path / "solve" / "manifest.json").versions == want
        grid = run_experiment_grid(GRID, tmp_path / "grid")
        assert grid.versions == want
        assert load_manifest(tmp_path / "grid" / "manifest.json").versions == want

    def test_every_manifest_has_one_shape(self, tmp_path):
        # The command-line manifests record threads as a grid does.
        cands = tmp_path / "topk" / "candidates.json"
        commands = {
            "topk": ["topk", "--horizon", 2, "--known", 2, "--k-max", 3],
            "solve": ["solve", "--horizon", 2],
            "features": ["features", "--trees", cands],
            "solve-idid": ["solve-idid", "--horizon", 2, "--candidates", cands],
            "simulate": ["simulate", "--horizon", 2, "--rounds", 2, "--candidates", cands],
            "experiment": ["experiment"],
        }
        for name, argv in commands.items():
            assert _run(["--out-dir", tmp_path / name, *argv]) == 0
            obj = json.loads((tmp_path / name / "manifest.json").read_text())
            assert set(obj) == {
                "command", "config", "seed", "tool_version", "input_hashes", "outputs",
                "timings", "errors", "threads", "versions",
            }
            assert set(obj["threads"]) == {
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "cpu_count"
            }
            assert set(obj["versions"]) == {"numpy", "python"}

    def test_manifest_without_versions_replays(self, tmp_path):
        run_experiment_grid(GRID, tmp_path / "a")
        path = tmp_path / "a" / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["versions"]
        path.write_text(json.dumps(manifest))
        assert _run(["--out-dir", tmp_path / "b", "experiment", "--from-manifest", path]) == 0
        for name in ("results.csv", "diversity.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

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
            ({"n_observations": 2}, "missing candidate file keys: trees$"),
            ({"trees": ["1;;A"]}, "missing candidate file keys: n_observations$"),
            ({}, "missing candidate file keys: trees, n_observations$"),
            ({"trees": "1;;A", "n_observations": 2}, "trees: '1;;A' is not a list$"),
            ({"trees": [1], "n_observations": 2}, "'trees' is a list of tree encodings"),
            ({"trees": ["1;;A"], "n_observations": "two"},
             "n_observations: 'two' is not an integer"),
            (
                {"trees": ["1;;A", "1;;B"], "n_observations": 2, "prior": [1.0]},
                r"prior shape \(1,\) for 2 trees",
            ),
            ({"trees": ["1;;A"], "n_observations": 2, "trace": [[1]]},
             r"trace: \[1\] is not \[integer, number\]$"),
            ({"trees": ["1;;A"], "n_observations": 2, "trace": [[1, None]]},
             r"trace: \[1, None\] is not \[integer, number\]$"),
            ({"trees": ["1;;A"], "n_observations": 2, "provenance": 5},
             "provenance: 5 is not a list$"),
            (
                {"trees": ["1;;A"], "n_observations": 2, "prior": [float("nan")]},
                "prior must be a distribution",
            ),
        ],
        ids=[
            "list", "no-trees", "no-n_observations", "no-keys", "trees-string", "trees-numbers",
            "n_observations-string", "short-prior", "short-trace", "null-trace",
            "provenance-number", "nan-prior",
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

    @pytest.mark.parametrize(
        "argv, obj, message",
        [
            (["--domain", "{}", "solve"], lambda: [1, 2],
             "a domain file is a JSON object, not a list"),
            (["--domain", "{}", "solve"], lambda: {"name": "x"},
             "missing domain file keys: states, actions_i, actions_j, observations_i, "),
            (["--domain", "{}", "solve"], lambda: _tiger2_obj(horizon=[2]),
             r"horizon: \[2\] is not an integer"),
            (["--domain", "{}", "solve"], lambda: _tiger2_obj(horizon=2.7),
             "horizon: 2.7 is not an integer"),
            (["--domain", "{}", "solve"], lambda: _tiger2_obj(horizon="3"),
             "horizon: '3' is not an integer"),
            (["--domain", "{}", "solve"], lambda: _tiger2_obj(horizon=True),
             "horizon: True is not an integer"),
            (["--domain", "{}", "solve"], lambda: _tiger2_obj(name=5),
             "name: 5 is not a string$"),
            (["--domain", "{}", "solve"], lambda: _tiger2_obj(name=""),
             "name: '' is not a non-empty string"),
            (["--domain", "{}", "solve"], lambda: _tiger2_edit("reward_i", (0, 0, 0), "-1.0"),
             "reward_i: '-1.0' is not a number"),
            (["--domain", "{}", "solve"], lambda: _tiger2_obj(start=[True, False]),
             "start: (True|False) is not a number"),
            (["--domain", "{}", "solve"], lambda: _tiger2_edit("transition", (0, 4), True),
             "transition: True is not a number"),
            (["--domain", "{}", "solve"], lambda: _tiger2_obj(states="ab"),
             "states: 'ab' is not a list$"),
            (["--domain", "{}", "solve"],
             lambda: _tiger2_obj(states={"TigerLeft": 0, "TigerRight": 1}),
             "states: {'TigerLeft': 0, 'TigerRight': 1} is not a list$"),
            (["--domain", "{}", "solve"], lambda: _tiger2_obj(observations_j="LR"),
             "observations_j: 'LR' is not a list$"),
            (["--domain", "{}", "solve"], lambda: _tiger2_obj(states=[1, 2]),
             "states: label 1 is not a string$"),
            (["--domain", "{}", "solve"], lambda: _tiger2_obj(obs_i=5),
             "obs_i: 5 is not a list$"),
            (["--domain", "{}", "solve"], lambda: _tiger2_obj(strat=[0.5, 0.5]),
             "unknown domain file keys: strat"),
            (["--domain", "{}", "solve"], lambda: _tiger2_edit("transition", (27, 4), 0.4),
             r"transition\[:, 2, 0\]: row 1 sums to 0\.90000000000000002$"),
            (["features", "--trees", "{}"], lambda: _candidates_obj(prior=["0.5", "0.5"]),
             "prior: '0.5' is not a number"),
            (["features", "--trees", "{}"], lambda: _candidates_obj(prior=[True, False]),
             "prior: True is not a number"),
            (["features", "--trees", "{}"], lambda: _candidates_obj(trace=[["1", "2.5"]]),
             "trace: '1' is not a number"),
            (["features", "--trees", "{}"], lambda: _candidates_obj(trace=[[True, 1]]),
             "trace: True is not a number"),
            (["features", "--trees", "{}"], lambda: _candidates_obj(trace=[[2.5, 1]]),
             "trace: 2.5 is not an integer"),
            (["features", "--trees", "{}"], lambda: _candidates_obj(trace={}),
             "trace: {} is not a list"),
            (["features", "--trees", "{}"], lambda: _candidates_obj(measure=5),
             "measure: 5 is not null, 'MDP' or 'MDF'"),
            (["features", "--trees", "{}"], lambda: _candidates_obj(priorr=[0.5, 0.5]),
             "unknown candidate file keys: priorr"),
            (["features", "--trees", "{}"], lambda: _candidates_obj(trees=["20000;a,b;x"]),
             "'20000;a,b;x': its actions form a tree of depth 1$"),
            (["features", "--trees", "{}"], lambda: _candidates_obj(trees=["%d;a,b;x" % 10**9]),
             "'1000000000;a,b;x': its actions form a tree of depth 1$"),
            (["experiment", "--config", "{}"], lambda: {"seeds": "x"},
             "seeds: 'x' is not a list$"),
            (["experiment", "--config", "{}"], lambda: {"rounds": 0}, "rounds must be >= 1"),
            (["experiment", "--config", "{}"], lambda: {"rounds": 10**30},
             "rounds must be <= 100000, got 10{30}$"),
            (["experiment", "--config", "{}"], lambda: {"patience": 10**30},
             "patience must be <= 10000, got 10{30}$"),
            (["experiment", "--config", "{}"], lambda: {"seeds": [0, 1, 0]},
             "seeds: repeated value 0$"),
            (["experiment", "--config", "{}"], lambda: {"algorithms": ["IDID", "IDID"]},
             "algorithms: repeated value 'IDID'$"),
            (["experiment", "--from-manifest", "{}"],
             lambda: {"command": "experiment", "config": {}, "bogus": 1},
             "unknown manifest keys: bogus$"),
            (["experiment", "--from-manifest", "{}"], lambda: [1],
             "a manifest is a JSON object, not a list$"),
        ],
        ids=[
            "domain-list", "domain-no-keys", "horizon-list", "horizon-float",
            "horizon-string", "horizon-bool", "name-number", "name-empty",
            "reward-string", "start-bools", "probability-bool", "states-string",
            "states-object", "observations-string", "states-numbers", "obs-number",
            "domain-unknown-key", "transition-row-sum",
            "prior-strings", "prior-bools", "trace-strings", "trace-bool", "trace-float-size",
            "trace-object", "measure-number", "candidates-unknown-key",
            "tree-depth-20000", "tree-depth-1e9",
            "config-seeds", "config-rounds", "config-rounds-huge", "config-patience-huge",
            "config-repeated-seed", "config-repeated-algorithm",
            "manifest-unknown-key", "manifest-list",
        ],
    )
    def test_input_error_names_its_file(self, tmp_path, argv, obj, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj()))
        argv = [a.format(path) for a in argv]
        with pytest.raises(ValueError, match="^" + re.escape(str(path)) + ": " + message):
            _run(["--out-dir", tmp_path / "out", *argv])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m, dom: m.update(input_hashes=[]), r"input_hashes: \[\] is not an object"),
            (lambda m, dom: m.update(command=5), "command: 5 is not a string"),
            (lambda m, dom: m.update(config=[1]), r"config: \[1\] is not an object"),
            (lambda m, dom: dom.write_text(dom.read_text() + "\n"),
             "domain file .* changed since its hash was recorded"),
            (lambda m, dom: m.update(versions=[]), r"versions: \[\] is not an object"),
            (lambda m, dom: m["versions"].update(numpy="1.0.0"),
             "manifest was written under numpy 1.0.0, this is numpy " + re.escape(np.__version__)),
        ],
        ids=["hashes-list", "command-number", "config-list", "domain-changed",
             "versions-list", "numpy-version"],
    )
    def test_replay_refusal_names_the_manifest(self, tmp_path, edit, message):
        # A domain-file grid's manifest, then one field of it or the domain
        # file changed.
        dom = tmp_path / "dom.json"
        dom.write_text(serialize_domain(builtin_domain("tiger", 2)))
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(dict(GRID, domain=str(dom))))
        assert _run(["--out-dir", tmp_path / "a", "experiment", "--config", cfg]) == 0
        path = tmp_path / "a" / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest, dom)
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="^" + re.escape(str(path)) + ": " + message):
            _run(["--out-dir", tmp_path / "b", "experiment", "--from-manifest", path])
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--candidates", "c.json", "--rounds", 10**30],
             "rounds must be <= 100000, got 10{30}$"),
            (["topk", "--patience", 10**30], "patience must be <= 10000, got 10{30}$"),
        ],
        ids=["simulate-rounds", "topk-patience"],
    )
    def test_count_flag_above_its_bound_is_refused(self, tmp_path, argv, message):
        with pytest.raises(ValueError, match=message):
            _run(["--out-dir", tmp_path / "out", *argv])
        assert not (tmp_path / "out").exists()

    def test_config_and_manifest_are_exclusive(self, tmp_path, capsys):
        # Replaying the manifest would leave the config unread and unnamed.
        assert _run(["--out-dir", tmp_path / "a", "experiment"]) == 0
        argv = ["--config", tmp_path / "missing.json",
                "--from-manifest", tmp_path / "a" / "manifest.json"]
        with pytest.raises(SystemExit):
            _run(["--out-dir", tmp_path / "b", "experiment", *argv])
        assert "not allowed with argument --config" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize(
        "flag, argv",
        [(flag, argv)
         for flag in (("--seed", -1, ">= 0, got -1"), ("--workers", 0, ">= 1, got 0"))
         for argv in (["topk"], ["simulate", "--candidates", "c.json"], ["experiment"])],
        ids=["topk", "simulate", "experiment",
             "workers-topk", "workers-simulate", "workers-experiment"],
    )
    def test_negative_seed_is_refused_before_output(self, tmp_path, capsys, flag, argv):
        # numpy's SeedSequence refuses a negative seed only mid-run, after the
        # output directory was made; --workers 0 is refused, not run serially.
        with pytest.raises(SystemExit) as info:
            _run([*flag[:2], "--out-dir", tmp_path / "out", *argv])
        assert info.value.code == 2
        assert "%s must be %s" % (flag[0], flag[2]) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        text = serialize_domain(builtin_domain("tiger", 2))
        with pytest.raises(ValueError, match="neither a builtin"):
            _run(["--out-dir", tmp_path / "out", "--domain", text, command])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("horizon", [40, 10**30])
    @pytest.mark.parametrize("command", ["solve", "topk", "experiment"])
    def test_horizon_too_large_is_refused_at_once(self, tmp_path, command, horizon):
        # Horizon 40 ran past 8 s and 10**30 ended in a RecursionError; a
        # complete tree over MAX_TREE_NODES is refused when the domain is built.
        if command == "experiment":
            cfg = tmp_path / "grid.json"
            cfg.write_text(json.dumps(dict(GRID, domain="tiger", horizons=[horizon])))
            args = ["experiment", "--config", cfg]
        else:
            args = ["--domain", "tiger", command, "--horizon", horizon]
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="horizon: %d gives agent i complete" % horizon):
            _run(["--out-dir", tmp_path / "out", *args])
        assert time.perf_counter() - t0 < 1.0

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
