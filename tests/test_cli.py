import json
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from noisylabels import Featurized, ValidationError, clean_dataset, \
    generate_synthetic_corpus, get_preset, heldout_losses, load_dataset, \
    noise_matrix, save_dataset, tune_threshold
from noisylabels import cli
from noisylabels.cli import main
from noisylabels.harness import ExperimentConfig, _apply_noise, _materialize, \
    noise_matrices_csv, threshold_sweep_csv


def write_config(path, **overrides):
    raw = {
        "method": "vanilla",
        "dataset": {"synthetic": {"classes": 3, "instances": 240,
                                  "vocab_per_class": 20, "overlap": 0.0,
                                  "seed": 7}},
        "split": {"train": 0.7, "validation": 0.15, "test": 0.15, "seed": 7},
        "noise": {"kind": "uniform_random", "level": 0.2},
        "featurizer": {"hash_dim": 1024},
        "train": {"steps": 80, "learning_rate": 0.5, "patience": 4,
                  "eval_every": 20, "hidden_size": 16},
        "runs": 1,
        "base_seed": 3,
    }
    raw.update(overrides)
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def write_corpus(path, instances=30):
    """A 3-class synthetic corpus file and its labels.txt, for noise and for
    {"path": ...} datasets."""
    save_dataset(generate_synthetic_corpus(3, instances, 8), path)
    return path


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "data"
        assert main(["gen", "--config", str(cfg), "--out-dir", str(out)]) == 0
        for name in ("train", "validation", "test"):
            assert (out / f"{name}.jsonl").exists()

    def test_validation_error_is_one(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", method="not-a-method")
        assert main(["train", "--config", str(cfg)]) == 1

    def test_method_failure_is_two(self, tmp_path):
        # threshold 0 removes every instance: a method failure, not bad input
        cfg = write_config(tmp_path / "cfg.json", method="nc",
                           cleaning={"folds": 3, "threshold": 0.0})
        assert main(["clean", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("flag", [{"runs": 0}, {"method": ""}])
    def test_zero_runs_or_empty_method_is_one(self, tmp_path, capsys, flag):
        cfg = write_config(tmp_path / "cfg.json", **flag)
        assert main(["train", "--config", str(cfg)]) == 1
        [key] = flag
        assert capsys.readouterr().err.startswith(f"error: {key} must be ")

    @pytest.mark.parametrize("overrides", [
        {"method": "nc", "cleaning": {"folds": 3}, "base_seed": 2**63},
        {"base_seed": -2**64 - 1},
    ])
    def test_seeds_past_64_bits_run(self, tmp_path, overrides):
        # every seed is taken mod 2**64, so no seed overflows a hash key
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "report.json"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        [run] = json.loads(out.read_text())["per_run"]
        assert "accuracy" in run and "error" not in run

    def test_empty_test_split_is_one(self, tmp_path, capsys):
        # rejected before any run trains, so no report (and no NaN) is written
        cfg = write_config(tmp_path / "cfg.json", method="boosting",
                           ensemble={"members": 2},
                           split={"train": 0.8, "validation": 0.2, "test": 0.0})
        out = tmp_path / "report.json"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_ensemble_grid_is_one(self, tmp_path, capsys):
        # every ensemble samples the one grid sized for the built-in model
        cfg = write_config(tmp_path / "cfg.json", method="hme",
                           ensemble={"members": 2, "grid": "compact"})
        assert main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == \
            "error: unknown 'ensemble' keys: ['grid']\n"

    def test_compare_refuses_an_oversized_hme_cell_first(self, tmp_path, capsys,
                                                         no_training):
        # the third cell's member count is refused before the first cell trains
        raw = json.loads(write_config(tmp_path / "cfg.json").read_text())
        del raw["method"]
        raw["experiments"] = [{"method": "vanilla"}, {"method": "coteaching"},
                              {"method": "hme", "ensemble": {"members": 17}}]
        cfg = tmp_path / "compare.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "table.csv"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: member count 17 must be in [1, 16] for this grid\n"
        assert not out.exists()

    @pytest.mark.parametrize("noise, message", [
        ({"kind": "uniform_random", "level": 2.0}, "level must be in [0, 1]"),
        ({"kind": "feature_dependent",
          "rules": [{"keywords": ["w0"], "label": "nosuch"}]},
         "unknown label 'nosuch'"),
        ({"kind": "uniform_random", "levle": 0.2},
         "uniform_random noise takes no ['levle']"),
    ], ids=["level", "label", "key"])
    def test_compare_refuses_a_malformed_noise_cell_first(
            self, tmp_path, capsys, no_training, noise, message):
        # the second cell's noise is refused before the clean row trains
        raw = json.loads(write_config(tmp_path / "cfg.json").read_text())
        del raw["method"], raw["noise"]
        raw["experiments"] = [
            {"method": "vanilla", "noise": {"kind": "uniform_random", "level": 0.2}},
            {"method": "vanilla", "noise": noise}]
        cfg = tmp_path / "compare.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "table.csv"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_compare_refuses_two_cells_of_one_key(self, tmp_path, capsys,
                                                  no_training):
        # one table cell per method and noise label: a second vanilla cell at
        # 20% would overwrite the first, so it is refused before anything trains
        raw = json.loads(write_config(tmp_path / "cfg.json").read_text())
        del raw["method"], raw["noise"]
        noise = {"kind": "uniform_random", "level": 0.2}
        raw["experiments"] = [
            {"method": "vanilla", "noise": noise},
            {"method": "vanilla", "noise": noise,
             "train": {"steps": 5, "eval_every": 5}}]
        cfg = tmp_path / "compare.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "table.csv"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: two compared configs are both vanilla at uniform_random 20%\n"
        assert not out.exists()

    @pytest.mark.parametrize("ramp_steps", [150, 10_000])
    def test_train_refuses_tau_one_first(self, tmp_path, capsys, no_training,
                                         ramp_steps):
        # a forget rate of 1 keeps no instance, whether or not the run
        # reaches the end of its ramp
        cfg = write_config(tmp_path / "cfg.json", method="coteaching",
                           coteaching={"tau": 1.0, "ramp_steps": ramp_steps})
        out = tmp_path / "report.json"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: need 0 <= tau < 1 and ramp_steps >= 0\n"
        assert not out.exists()

    def test_every_run_failing_is_two(self, tmp_path, capsys, no_consensus):
        cfg = write_config(tmp_path / "cfg.json", method="ceta", runs=2)
        out = tmp_path / "r.json"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("method failure: every run failed; first error: "
                              "ConsensusCollapseError: no consensus")
        assert "Traceback" not in err
        assert not out.exists()

    def test_missing_config_file_is_one(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "corpus.jsonl")
        out = tmp_path / "x.jsonl"
        assert main(["noise", "--config", str(tmp_path / "nope.json"),
                     "--in", str(corpus), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: no such config file")
        assert not out.exists()


class TestUsageErrors:
    """A command line argparse rejects is exit 1 with an error line, like any
    other bad input; exit 2 is kept for method failures."""

    @pytest.fixture(autouse=True)
    def in_tmp_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize("argv", [
        [],
        ["train"],
        ["ensemble", "--config", "cfg.json"],
        ["noise", "--config", "cfg.json", "--in", "c.jsonl", "--format", "xml",
         "--out", "n.jsonl"],
        ["gen", "--colours", "3"],
        ["gen", "--config", "cfg.json", "--classes", "three"],
        ["train", "--config", "cfg.json", "--runs", "3"],
        ["train", "--config", "cfg.json", "--method", "nc"],
        ["noise", "--config", "cfg.json", "--in", "c.jsonl", "--out", "n.jsonl",
         "--kind", "uniform_random"],
        ["compare", "--config", "cfg.json", "--no-clean-row"],
    ], ids=["no-subcommand", "missing-required-flag", "unknown-subcommand",
            "bad-choice", "unknown-flag", "removed-flag", "removed-train-runs",
            "removed-train-method", "removed-noise-kind",
            "removed-compare-no-clean-row"])
    def test_usage_error_is_one(self, tmp_path, capsys, request, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "usage:" not in err
        if request.node.callspec.id.startswith("removed-"):
            assert "unrecognized arguments" in err
        assert not list(tmp_path.iterdir())

    def test_help_is_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out


RULES = [{"keywords": ["w0"], "label": 0}]


class TestFlagsOfAnotherMode:
    """noise rejects a key of the config's noise section (a `flags` case)
    that the chosen kind does not read, gen every flag of its removed
    synthetic and single-file modes, and neither writes anything."""

    @pytest.fixture(autouse=True)
    def in_tmp_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize("flags, message", [
        ({"kind": "uniform_random", "level": 0.2, "rules": RULES},
         "error: uniform_random noise takes no ['rules']"),
        ({"kind": "uniform_random", "level": 0.2, "rules": "rules.json"},
         "error: uniform_random noise takes no ['rules']"),
        ({"kind": "pseudo_real_world", "fallback": "random"},
         "error: pseudo_real_world noise takes no ['fallback']"),
        ({"kind": "feature_dependent", "rules": RULES, "level": 0.2},
         "error: feature_dependent noise takes no ['level']"),
        ({"kind": "feature_dependent"},
         "error: feature_dependent noise needs 'rules'"),
    ])
    def test_noise_flag_of_another_kind_is_one(self, tmp_path, capsys, flags,
                                               message):
        write_corpus(tmp_path / "corpus.jsonl")
        write_config(tmp_path / "cfg.json", noise=flags)
        capsys.readouterr()
        assert main(["noise", "--config", "cfg.json", "--in", "corpus.jsonl",
                     "--out", "n.jsonl"]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "n.jsonl").exists()

    @pytest.mark.parametrize("flags", [
        ["--preset", "separable", "--classes", "9", "--instances", "50"],
        ["--preset", "separable"], ["--corpus-seed", "4"], ["--classes", "3"],
        ["--instances", "30"], ["--vocab-per-class", "8"], ["--overlap", "0.1"],
        ["--seed", "1"], ["--min-tokens", "4"], ["--max-tokens", "9"],
        ["--global-token-fraction", "0.1"], ["--annotators", "2"],
        ["--out", "mycorpus.jsonl"],
    ])
    def test_gen_flag_of_another_mode_is_one(self, tmp_path, capsys, flags):
        write_config(tmp_path / "cfg.json", dataset={"preset": "separable"},
                     split=None)
        assert main(["gen", "--config", "cfg.json", *flags,
                     "--out-dir", "d"]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: unrecognized arguments: {flags[0]}")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


# the file flag each command reads, and the file kind its errors name
CONFIG_COMMANDS = {"noise": "config", "train": "config", "clean": "config",
                   "compare": "config", "plotdata": "report"}
# the other flags a command requires
REQUIRED_FLAGS = {"noise": ["--in", "corpus.jsonl", "--out", "noised.jsonl"]}


class TestConfigFileErrors:
    @pytest.fixture(autouse=True)
    def in_tmp_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # plotdata makes its default out dir

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    def test_missing_config_is_one(self, tmp_path, capsys, command):
        missing = tmp_path / "nope.json"
        what = CONFIG_COMMANDS[command]
        assert main([command, f"--{what}", str(missing),
                     *REQUIRED_FLAGS.get(command, [])]) == 1
        assert capsys.readouterr().err.startswith(f"error: no such {what} file")
        assert not (tmp_path / "noised.jsonl").exists()

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    def test_invalid_json_is_one(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_text('{"method": "vanilla",', encoding="utf-8")
        what = CONFIG_COMMANDS[command]
        assert main([command, f"--{what}", str(bad),
                     *REQUIRED_FLAGS.get(command, [])]) == 1
        assert capsys.readouterr().err.startswith(f"error: {what} is not valid JSON")
        assert not (tmp_path / "noised.jsonl").exists()


class TestWrongShapeInputs:
    @pytest.fixture(autouse=True)
    def in_tmp_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize("make_config", [
        lambda tmp_path: tmp_path / "nope.json",
        lambda tmp_path: write_config(tmp_path / "cfg.json", method="bert"),
        lambda tmp_path: write_config(tmp_path / "cfg.json",
                                      dataset={"preset": "imagenet"}),
    ])
    def test_clean_bad_config_leaves_no_directory(self, tmp_path, capsys,
                                                   make_config):
        cfg = make_config(tmp_path)
        assert main(["clean", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "cleaning_out").exists()

    @pytest.mark.parametrize("payload", [
        [1, 2], {"per_run": 3}, {"per_run": [7]},
        {"per_run": [{"accuracy": 0.5}]},
        {"per_run": [{"accuracy": {"a": 1, "b": 2}, "seed": [1, 2]},
                     {"accuracy": "x", "seed": True},
                     {"accuracy": 0.5, "seed": 3}]},
        {"accuracy_mean": 0.5},
        {"per_run": [{"accuracy": True, "seed": 1}]},
        {"per_run": [{"accuracy": 0.5, "seed": False}]},
        {"per_run": [{"accuracy": float("nan"), "seed": 1}]},
        {"per_run": [{"accuracy": float("inf"), "seed": 1}]},
        {"per_run": [{"accuracy": 0.5, "seed": 1.0}]},
        {"per_run": [{"accuracy": None, "seed": 1}]},
    ])
    def test_plotdata_report_of_wrong_shape_is_one(self, tmp_path, capsys,
                                                   payload):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(payload), encoding="utf-8")
        out_dir = tmp_path / "plots"
        assert main(["plotdata", "--report", str(report),
                     "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err.startswith("error: report ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("ensemble, key", [
        ({"members": 0}, "members"), ({"subset_fraction": 1.5}, "subset_fraction")],
        ids=["members", "subset_fraction"])
    def test_ensemble_settings_error_names_its_keys(self, tmp_path, capsys,
                                                    ensemble, key):
        cfg = write_config(tmp_path / "cfg.json", method="boosting",
                           ensemble=ensemble)
        out = tmp_path / "report.json"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{key}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("experiments", [[1], ["vanilla"], [[]], {}])
    def test_compare_experiments_of_wrong_shape_is_one(self, tmp_path, capsys,
                                                       experiments):
        cfg = tmp_path / "compare.json"
        cfg.write_text(json.dumps({"dataset": {"preset": "separable"},
                                   "experiments": experiments}),
                       encoding="utf-8")
        assert main(["compare", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: compare config needs an 'experiments' list")

    @pytest.mark.parametrize("annotators", [5, "yz", {"k": 1}, True],
                             ids=["int", "str", "object", "bool"])
    def test_annotator_labels_not_a_list_is_one(self, tmp_path, capsys,
                                               annotators):
        rows = [{"id": "a", "text": "x", "label": "l1"},
                {"id": "b", "text": "y", "label": "l2",
                 "annotator_labels": annotators}]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in rows),
                          encoding="utf-8")
        with pytest.raises(ValidationError,
                           match="^line 2: annotator_labels must be a list"):
            load_dataset(corpus)
        cfg = write_config(tmp_path / "cfg.json")
        before = sorted(tmp_path.iterdir())
        assert main(["noise", "--config", str(cfg), "--in", str(corpus),
                     "--out", str(tmp_path / "noised.jsonl")]) == 1
        assert capsys.readouterr().err.startswith(
            "error: line 2: annotator_labels must be a list")
        assert sorted(tmp_path.iterdir()) == before

    # 2^40 hash rows of a 16-wide float64 encoder take 128 TiB, which no
    # allocator grants, so the request is refused at once; 2^61 or 2^62 hash
    # rows times a split's texts overflow the featurizer's 64-bit cell keys,
    # so featurizing is refused before it starts; 2^63 instances do
    # not fit the C integer numpy draws them into; an encoder of 1024 x 2^62
    # or 2^63 floats has more bytes than an index can address; the class
    # vocabularies are bounded before any token list is built
    @pytest.mark.parametrize("overrides, message", [
        ({"featurizer": {"hash_dim": 2 ** 40}}, "Unable to allocate"),
        ({"featurizer": {"hash_dim": 2 ** 61}}, f"hash_dim {2 ** 61} is too large"),
        ({"featurizer": {"hash_dim": 2 ** 62}}, f"hash_dim {2 ** 62} is too large"),
        ({"dataset": {"synthetic": {"classes": 3, "instances": 2 ** 63}}},
         "Python int too large"),
        ({"train": {"steps": 5, "hidden_size": 2 ** 62}},
         f"hidden_size {2 ** 62} is too large"),
        ({"train": {"steps": 5, "hidden_size": 2 ** 63}},
         f"hidden_size {2 ** 63} is too large"),
        ({"dataset": {"synthetic": {"classes": 3, "instances": 240,
                                    "vocab_per_class": 2 ** 40}}},
         "vocab_per_class must be >= 4, and vocab_per_class x classes at most"),
        ({"dataset": {"synthetic": {"classes": 3, "instances": 240,
                                    "vocab_per_class": 2 ** 63}}},
         "vocab_per_class must be >= 4, and vocab_per_class x classes at most"),
        ({"dataset": {"synthetic": {"classes": 2 ** 40, "instances": 2 ** 40,
                                    "vocab_per_class": 20}}},
         "vocab_per_class must be >= 4, and vocab_per_class x classes at most")],
        ids=["hash-dim", "hash-dim-2^61", "hash-dim-2^62", "instances",
             "hidden-size-2^62", "hidden-size-2^63", "vocab-per-class-2^40", "vocab-per-class-2^63", "classes-2^40"])
    def test_setting_too_large_is_one(self, tmp_path, capsys, overrides,
                                      message):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "report.json"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("rules", [
        [1], {"a": 1}, [{"keywords": 5, "label": 0}],
        [{"keywords": "abc", "label": 0}], [{"keywords": ["a", 2], "label": 0}],
        [{"label": 0}], [{"keywords": ["a"]}], [{"keywords": ["a"], "label": 1.5}],
    ])
    def test_noise_rules_of_wrong_shape_are_one(self, tmp_path, capsys, rules):
        corpus = write_corpus(tmp_path / "corpus.jsonl")
        cfg = write_config(tmp_path / "cfg.json",
                           noise={"kind": "feature_dependent", "rules": rules})
        capsys.readouterr()
        assert main(["noise", "--config", str(cfg), "--in", str(corpus),
                     "--out", str(tmp_path / "noised.jsonl")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "noised.jsonl").exists()

    @staticmethod
    def corpus_command(tmp_path, command):
        """A generated 30-row corpus, the output path, and argv that runs
        `command` on the corpus."""
        corpus = write_corpus(tmp_path / "corpus.jsonl")
        out = tmp_path / "out.json"
        if command == "noise":
            cfg = write_config(tmp_path / "cfg.json")
            return corpus, out, ["noise", "--config", str(cfg), "--in", str(corpus),
                                 "--out", str(out)]
        cfg = write_config(tmp_path / "cfg.json", dataset={"path": str(corpus)})
        return corpus, out, ["train", "--config", str(cfg), "--out", str(out)]

    @pytest.mark.parametrize("command", ["noise", "train"])
    def test_lone_surrogate_corpus_is_one(self, tmp_path, capsys, command):
        corpus, out, argv = self.corpus_command(tmp_path, command)
        rows = corpus.read_text(encoding="utf-8").splitlines()
        row = json.loads(rows[3])
        row["text"] += " \ud800"
        rows[3] = json.dumps(row)  # escaped, so the file stays valid UTF-8
        corpus.write_text("\n".join(rows) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: line 4: invalid unicode")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["noise", "train"])
    def test_corpus_not_utf8_is_one(self, tmp_path, capsys, command):
        corpus, out, argv = self.corpus_command(tmp_path, command)
        rows = corpus.read_bytes().split(b"\n")
        rows[3] = rows[3].replace(b'"text": "', b'"text": "\xed\xa0\x80 ', 1)
        corpus.write_bytes(b"\n".join(rows))
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            "error: line 4: corpus.jsonl is not UTF-8")
        assert not out.exists()

    SYNTHETIC = {"classes": 3, "instances": 240, "vocab_per_class": 20,
                 "seed": 7}

    @pytest.mark.parametrize("overrides", [
        {"split": {"tarin": 0.5}},
        {"noise": {"kind": "uniform_random", "levle": 0.3}},
        {"dataset": {"synthetic": {"instances": 240}}},
        {"dataset": {"synthetic": {**SYNTHETIC, "colours": 3}}},
        {"dataset": {"synthetic": 5}},
        {"runs": "2"},
        {"dataset": {"preset": "separable", "corpus_seed": "x"}, "split": None},
        {"noise": "uniform_random"},
        {"split": [1]},
        {"featurizer": {"hash_seed": 2**63}},
        {"featurizer": {"hash_seed": -2**63 - 1}},
        {"train": {"steps": 80, "learning_rate": float("nan")}},
        {"train": {"steps": 80, "weight_decay": float("inf")}},
        {"method": "ceta", "ceta": {"lambda_w": float("inf")}},
        {"dataset": {"synthetic": {**SYNTHETIC,
                                   "class_weights": [float("nan"), 1, 1]}}},
        {"split": {"train": float("nan"), "validation": 0.15, "test": 0.15}},
        {"train": {"steps": 80, "seed": 99}},
        {"method": "nc", "cleaning": {"folds": 3, "seed": 99}},
        {"dataset": {"synthetic": {**SYNTHETIC, "tokens_per_text": [1, 2, 3]}}},
        {"dataset": {"synthetic": {**SYNTHETIC, "tokens_per_text": [5]}}},
    ])
    def test_malformed_config_sections_are_one(self, tmp_path, capsys,
                                               overrides):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("rules", [[1], {"a": 1},
                                       [{"keywords": "abc", "label": 0}]])
    def test_config_rules_of_wrong_shape_are_one(self, tmp_path, capsys, rules):
        cfg = write_config(tmp_path / "cfg.json",
                           noise={"kind": "feature_dependent", "rules": rules})
        assert main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestOutputPathErrors:
    """An output path that cannot be written is exit 1 with an error line,
    found before any training starts."""

    @pytest.fixture(autouse=True)
    def in_tmp_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def reached(*args, **kwargs):
            raise AssertionError("work started before the output was checked")

        for name in ("run_experiment", "compare_methods", "clean_dataset",
                     "_materialize", "apply_noise"):
            monkeypatch.setattr(cli, name, reached)

    @staticmethod
    def argv(tmp_path, case):
        """argv running case's command with an unwritable output path:
        "nodir" does not exist, "afile" is a file and "adir" a directory.
        A "-config" case names the path in an "output" key, which no config
        may hold, and a "-nul" one names a path holding a NUL byte."""
        (tmp_path / "afile").write_text("", encoding="utf-8")
        (tmp_path / "adir").mkdir()
        if case in ("noise", "noise-matrix-dir"):
            write_corpus(tmp_path / "corpus.jsonl")
            return ["noise", "--config", str(write_config(tmp_path / "cfg.json")),
                    "--in", "corpus.jsonl", "--out", "noised.jsonl", "--matrix-out",
                    "adir" if case == "noise-matrix-dir" else "nodir/m.csv"]
        if case.startswith("plotdata"):
            (tmp_path / "report.json").write_text(
                json.dumps({"per_run": [{"seed": 0, "accuracy": 0.5}]}),
                encoding="utf-8")
            return ["plotdata", "--report", "report.json", "--out-dir",
                    "afile/x" if case == "plotdata-under-file" else "afile"]
        command = case.split("-")[0]
        configs = {
            "gen": {},
            "train": {},
            "compare": {"experiments": [{"method": "vanilla"}]},
            "clean": {"method": "nc", "cleaning": {"folds": 3}}}
        out = {"gen": ["--out-dir", "afile/x"],
               "gen-file": ["--out-dir", "afile"],
               "train": ["--out", "nodir/r.json"],
               "train-nul": ["--out", "r\0.json"],
               "train-config": {"output": "nodir/r.json"},
               "train-config-nul": {"output": "r\0.json"},
               "compare": ["--out", "nodir/t.csv"],
               "compare-config": {"output": "nodir/t.csv"},
               "clean": ["--out-dir", "afile/x"],
               "clean-file": ["--out-dir", "afile"],
               "clean-nul": ["--out-dir", "x\0y"],
               "clean-config": {"output": "afile/x"},
               "clean-config-nul": {"output": "x\0y"}}[case]
        overrides = {**configs[command], **(out if isinstance(out, dict) else {})}
        cfg = str(write_config(tmp_path / "cfg.json", **overrides))
        return [command, "--config", cfg, *(out if isinstance(out, list) else [])]

    @pytest.mark.parametrize("case", [
        "gen", "gen-file", "noise", "noise-matrix-dir", "train", "train-nul",
        "train-config", "train-config-nul", "clean", "clean-file", "clean-nul",
        "clean-config", "clean-config-nul", "compare", "compare-config",
        "plotdata", "plotdata-under-file"])
    def test_unwritable_output_is_one(self, tmp_path, capsys, case):
        argv = self.argv(tmp_path, case)
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        if "-config" in case:
            assert err == "error: unknown config keys: ['output']\n"
        # noise checks --matrix-out before it writes --out
        assert not (tmp_path / "noised.jsonl").exists()


def reference_cleaning(cfg_path, out_dir):
    """The clean outputs as composed from heldout_losses, tune_threshold and
    clean_dataset, the tuning and the cleaning each from its own held-out
    losses."""
    cfg = ExperimentConfig.from_dict(
        json.loads(cfg_path.read_text(encoding="utf-8")))
    mat = _materialize(cfg)
    train, val = _apply_noise(mat, cfg, cfg.base_seed)
    ccfg = replace(cfg.cleaning, seed=cfg.base_seed)
    tcfg = replace(cfg.train, seed=cfg.base_seed)
    out_dir.mkdir()
    data = Featurized.of(cfg.featurizer, train, val)
    threshold, diagnostics, _ = tune_threshold(
        data, heldout_losses(data, ccfg, tcfg)[0], ccfg, tcfg)
    (out_dir / "threshold_sweep.csv").write_text(
        threshold_sweep_csv(diagnostics), encoding="utf-8")
    cleaned, report, _, _ = clean_dataset(
        train, replace(ccfg, threshold=threshold), tcfg, cfg.featurizer, val)
    (out_dir / "noise_matrices.csv").write_text(
        noise_matrices_csv(train, cleaned), encoding="utf-8")
    save_dataset(cleaned, out_dir / "cleaned.jsonl", "jsonl")
    report.save(out_dir / "cleaning_report.json")


class TestOnePassCleaning:
    @pytest.fixture()
    def cfg(self, tmp_path):
        return write_config(tmp_path / "cfg.json", method="nc",
                            cleaning={"folds": 3,
                                      "tuning_quantiles": [0.4, 0.6, 0.9]})

    @staticmethod
    def files(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    def test_clean_outputs_match_composition(self, tmp_path, cfg):
        assert main(["clean", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "cli")]) == 0
        reference_cleaning(cfg, tmp_path / "ref")
        cli = self.files(tmp_path / "cli")
        assert set(cli) == {"threshold_sweep.csv", "cleaning_report.json",
                            "cleaned.jsonl", "labels.txt", "noise_matrices.csv"}
        assert cli == self.files(tmp_path / "ref")


class TestNoPartialOutputs:
    """A command that fails leaves no output behind, even when it fails
    after its method has run."""

    def test_unsaveable_cleaned_set_writes_nothing(self, tmp_path, capsys):
        # a JSONL label may have edge whitespace, which labels.txt cannot
        # store; clean finds out only when it saves the cleaned set
        corpus = write_corpus(tmp_path / "corpus.jsonl", instances=120)
        (tmp_path / "labels.txt").unlink()
        corpus.write_text(corpus.read_text(encoding="utf-8").replace(
            '"class1"', '" class1"'), encoding="utf-8")
        cfg = write_config(tmp_path / "cfg.json", method="nc",
                           dataset={"path": str(corpus)}, cleaning={"folds": 3})
        out = tmp_path / "out"
        assert main(["clean", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: label names [' class1'] cannot be saved")
        assert not out.exists()

    def test_matrix_without_gold_writes_nothing(self, tmp_path, capsys):
        # the matrix needs gold labels; noise used to write --out first
        corpus = write_corpus(tmp_path / "corpus.jsonl")
        corpus.write_text("".join(
            json.dumps({k: v for k, v in json.loads(line).items()
                        if k != "gold_label"}) + "\n"
            for line in corpus.read_text(encoding="utf-8").splitlines()),
            encoding="utf-8")
        cfg = write_config(tmp_path / "cfg.json", noise={"kind": "none"})
        out = tmp_path / "out"
        out.mkdir()
        assert main(["noise", "--config", str(cfg), "--in", str(corpus),
                     "--out", str(out / "o.jsonl"),
                     "--matrix-out", str(out / "m.csv")]) == 1
        assert capsys.readouterr().err == \
            "error: operation requires gold labels on every instance\n"
        assert not any(out.iterdir())


class TestPipelines:
    def test_gen_noise_train_from_files(self, tmp_path):
        # README's chain: gen writes a config's clean splits, noise reads one
        data = tmp_path / "data"
        corpus = data / "train.jsonl"
        noised = tmp_path / "noised.jsonl"
        gen_cfg = str(write_config(tmp_path / "gen.json"))
        assert main(["gen", "--config", gen_cfg, "--out-dir", str(data)]) == 0
        assert main(["noise", "--config", gen_cfg, "--in", str(corpus),
                     "--out", str(noised),
                     "--matrix-out", str(tmp_path / "matrix.csv")]) == 0
        assert (tmp_path / "matrix.csv").read_text().startswith("gold\\observed")
        # a corpus whose test portion would be noisy is rejected outright
        bad = write_config(tmp_path / "bad.json",
                           dataset={"path": str(noised)},
                           noise={"kind": "none"})
        assert main(["train", "--config", str(bad)]) == 1
        # the supported flow noises train/validation inside the experiment
        cfg = write_config(tmp_path / "cfg.json",
                           dataset={"path": str(corpus)})
        report_path = tmp_path / "report.json"
        assert main(["train", "--config", str(cfg),
                     "--out", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        assert payload["method"] == "vanilla"
        assert 0.0 <= payload["accuracy_mean"] <= 1.0

    def test_preset_gen_writes_three_splits(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           dataset={"preset": "separable"}, split=None)
        out_dir = tmp_path / "sep"
        assert main(["gen", "--config", str(cfg),
                     "--out-dir", str(out_dir)]) == 0
        for name in ("train", "validation", "test"):
            assert (out_dir / f"{name}.jsonl").exists()

    def test_clean_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", method="nc",
                           cleaning={"folds": 3,
                                     "tuning_quantiles": [0.6, 0.9]})
        out_dir = tmp_path / "cleaning"
        assert main(["clean", "--config", str(cfg),
                     "--out-dir", str(out_dir)]) == 0
        for name in ("cleaned.jsonl", "cleaning_report.json",
                     "threshold_sweep.csv", "noise_matrices.csv"):
            assert (out_dir / name).exists()

    def test_train_runs_an_ensemble(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", method="boosting",
                           ensemble={"members": 2, "subset_fraction": 0.8})
        out = tmp_path / "report.json"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["method"] == "boosting"

    def test_compare_subcommand(self, tmp_path):
        shared = {
            "dataset": {"synthetic": {"classes": 3, "instances": 240,
                                      "vocab_per_class": 20, "overlap": 0.0,
                                      "seed": 7}},
            "split": {"train": 0.7, "validation": 0.15, "test": 0.15,
                      "seed": 7},
            "featurizer": {"hash_dim": 1024},
            "train": {"steps": 80, "learning_rate": 0.5, "patience": 4,
                      "eval_every": 20, "hidden_size": 16},
            "runs": 1,
            "experiments": [
                {"method": "vanilla",
                 "noise": {"kind": "uniform_random", "level": 0.1}},
                {"method": "vanilla",
                 "noise": {"kind": "uniform_random", "level": 0.3}},
            ],
        }
        cfg = tmp_path / "compare.json"
        cfg.write_text(json.dumps(shared), encoding="utf-8")
        out = tmp_path / "table.csv"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "method,uniform_random 10%,uniform_random 30%"

    def test_plotdata_from_report(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        report_path = tmp_path / "report.json"
        assert main(["train", "--config", str(cfg),
                     "--out", str(report_path)]) == 0
        out_dir = tmp_path / "plots"
        assert main(["plotdata", "--report", str(report_path),
                     "--out-dir", str(out_dir)]) == 0
        lines = (out_dir / "accuracy_runs.csv").read_text().splitlines()
        assert lines[0] == "run,seed,accuracy"
        assert len(lines) == 2


class TestGen:
    """gen writes the clean splits of a config's dataset, through the one
    path that train and clean materialize it by."""

    @staticmethod
    def files(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    @pytest.mark.parametrize("name, corpus_seed, fmt", [
        ("separable", None, "jsonl"), ("yoruba_like", None, "jsonl"),
        ("hausa_like", None, "jsonl"), ("yoruba_like", 77, "jsonl"),
        ("yoruba_like", None, "tsv")])
    def test_preset_files_equal_saved_clean_splits(self, tmp_path, name,
                                                   corpus_seed, fmt):
        cfg = write_config(tmp_path / "cfg.json", split=None, dataset={
            "preset": name, "corpus_seed": corpus_seed})
        assert main(["gen", "--config", str(cfg), "--out-dir",
                     str(tmp_path / "cli"), "--format", fmt]) == 0
        ref = tmp_path / "ref"
        ref.mkdir()
        splits = get_preset(name, corpus_seed).clean_splits()
        for split, dataset in zip(("train", "validation", "test"), splits):
            save_dataset(dataset, ref / f"{split}.{fmt}", fmt)
        assert self.files(tmp_path / "cli") == self.files(ref)

    @pytest.mark.parametrize("source", ["synthetic", "path"])
    def test_splits_load_back_as_materialized(self, tmp_path, source):
        overrides = {"split": {"train": 0.6, "validation": 0.2, "test": 0.2,
                               "seed": 4}}
        if source == "path":
            corpus = write_corpus(tmp_path / "corpus.jsonl", instances=90)
            overrides["dataset"] = {"path": str(corpus)}
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "data"
        assert main(["gen", "--config", str(cfg), "--out-dir", str(out)]) == 0
        mat = _materialize(ExperimentConfig.from_dict(
            json.loads(cfg.read_text(encoding="utf-8"))))
        # a file does not record its split tag
        assert [replace(load_dataset(out / f"{name}.jsonl"), split=name)
                for name in ("train", "validation", "test")] == \
            [mat.train, mat.val, mat.test]

    @pytest.mark.parametrize("overrides", [
        {"dataset": {"preset": "separable"}},
        {"split": {"train": 0.8, "validation": 0.2, "test": 0.0}}])
    def test_rejected_corpus_writes_nothing(self, tmp_path, capsys, overrides):
        # _materialize rejects a preset with a split, and an empty test split
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "data"
        assert main(["gen", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


    def test_unsaveable_split_writes_nothing(self, tmp_path, capsys):
        # a JSONL text may hold a tab, which TSV cannot store
        corpus = tmp_path / "corpus.jsonl"
        rows = write_corpus(corpus, instances=60).read_text(
            encoding="utf-8").splitlines()
        rows[-1] = rows[-1].replace('"text": "', '"text": "tab\\there ', 1)
        corpus.write_text("\n".join(rows) + "\n", encoding="utf-8")
        tab = write_config(tmp_path / "tab.json", dataset={"path": str(corpus)})
        # separable's instances carry annotator labels, which TSV cannot store
        annotated = write_config(tmp_path / "annotated.json", split=None,
                                 dataset={"preset": "separable"})
        for cfg in (tab, annotated):
            out = tmp_path / f"{cfg.stem}-data"
            assert main(["gen", "--config", str(cfg), "--out-dir", str(out),
                         "--format", "tsv"]) == 1
            assert capsys.readouterr().err.startswith("error: TSV cannot store")
            assert not out.exists()


class TestNoise:
    """noise writes the noise that train's first run puts on its training
    split: the config's noise section drawn from base_seed, or a preset's own
    rule labeler when there is no section."""

    SYNTHETIC = {"synthetic": {"classes": 3, "instances": 240,
                               "vocab_per_class": 20, "seed": 7,
                               "annotators_per_instance": 2}}
    # TSV cannot store annotator labels, so the TSV case's corpus has none
    UNANNOTATED = {"synthetic": {**SYNTHETIC["synthetic"], "annotators_per_instance": 0}}

    @pytest.mark.parametrize("dataset, noise, fmt", [
        ({"preset": "yoruba_like"}, None, "jsonl"),
        ({"preset": "hausa_like", "corpus_seed": 5}, None, "jsonl"),
        ({"preset": "separable"}, {"kind": "uniform_random", "level": 0.25},
         "jsonl"),
        ({"preset": "separable"}, {"kind": "pseudo_real_world", "level": 0.2},
         "jsonl"),
        (SYNTHETIC, {"kind": "feature_dependent", "fallback": "random", "seed": 3,
                     "rules": [{"keywords": ["tok0001"], "label": "class1"}]},
         "jsonl"),
        (UNANNOTATED, {"kind": "uniform_random", "level": 0.3}, "tsv"),
        (SYNTHETIC, {"kind": "none"}, "jsonl"),
    ], ids=["yoruba_like", "hausa_like", "uniform_random", "pseudo_real_world",
            "feature_dependent", "tsv", "none"])
    def test_output_equals_run_zero_training_split(self, tmp_path, dataset,
                                                   noise, fmt):
        split = None if "preset" in dataset else {"seed": 7}
        cfg = write_config(tmp_path / "cfg.json", dataset=dataset, noise=noise,
                           split=split)
        data, cli, ref = tmp_path / "data", tmp_path / "cli", tmp_path / "ref"
        assert main(["gen", "--config", str(cfg), "--out-dir", str(data),
                     "--format", fmt]) == 0
        cli.mkdir()
        assert main(["noise", "--config", str(cfg), "--in", str(data / f"train.{fmt}"),
                     "--format", fmt, "--out", str(cli / f"noised.{fmt}"),
                     "--matrix-out", str(cli / "matrix.csv")]) == 0
        parsed = ExperimentConfig.from_dict(json.loads(cfg.read_text(encoding="utf-8")))
        train, _ = _apply_noise(_materialize(parsed), parsed, parsed.base_seed)
        ref.mkdir()
        save_dataset(train, ref / f"noised.{fmt}", fmt)
        noise_matrix(train).save(ref / "matrix.csv")
        assert TestGen.files(cli) == TestGen.files(ref)

    def test_preset_with_a_split_is_one(self, tmp_path, capsys):
        # the preset lookup train makes, so noise rejects what train rejects
        cfg = write_config(tmp_path / "cfg.json", dataset={"preset": "separable"})
        corpus = write_corpus(tmp_path / "corpus.jsonl")
        out = tmp_path / "noised.jsonl"
        assert main(["noise", "--config", str(cfg), "--in", str(corpus),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: a preset fixes its own split; drop 'split'\n"
        assert not out.exists()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", dataset={"synthetic": {
            "classes": 2, "instances": 20, "vocab_per_class": 6}})
        result = subprocess.run(
            [sys.executable, "-m", "noisylabels.cli", "gen", "--config",
             str(cfg), "--out-dir", str(tmp_path / "data")],
            capture_output=True, text=True)
        assert result.returncode == 0
        sizes = re.search(r"wrote (\d+)/(\d+)/(\d+) instances", result.stdout)
        assert sum(map(int, sizes.groups())) == 20

    def test_order_longer_than_every_text_trains(self, tmp_path):
        # the featurizer's work grows with the longest text, not the order
        cfg = write_config(tmp_path / "cfg.json",
                           featurizer={"hash_dim": 1024, "ngram_orders": [1, 10**9]},
                           train={"steps": 5, "hidden_size": 8})
        result = subprocess.run(
            [sys.executable, "-m", "noisylabels.cli", "train", "--config", str(cfg),
             "--out", str(tmp_path / "report.json")],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr

    def test_usage_error_exits_one(self):
        result = subprocess.run([sys.executable, "-m", "noisylabels.cli", "train"],
                                capture_output=True, text=True)
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")


def test_readme_cli_examples_parse():
    """Every `noisylabels ...` line of README's bash blocks parses, and
    together they name every subcommand."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```bash\n(.*?)^```", readme, re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines
                if line.startswith("noisylabels ")]
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except ValidationError as exc:
            pytest.fail(f"README: {shlex.join(argv)}: {exc}")
    subcommands = parser._subparsers._group_actions[0].choices
    assert {argv[1] for argv in commands} == set(subcommands)
