import json
import subprocess
import sys
from dataclasses import replace

import pytest

from noisylabels import clean_dataset, save_dataset, tune_threshold
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


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        out = tmp_path / "corpus.jsonl"
        assert main(["gen", "--classes", "3", "--instances", "60",
                     "--vocab-per-class", "8", "--out", str(out)]) == 0
        assert out.exists()

    def test_validation_error_is_one(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", method="not-a-method")
        assert main(["train", "--config", str(cfg)]) == 1

    def test_method_failure_is_two(self, tmp_path):
        # threshold 0 removes every instance: a method failure, not bad input
        cfg = write_config(tmp_path / "cfg.json", method="nc",
                           cleaning={"folds": 3, "threshold": 0.0})
        assert main(["clean", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("flag", [["--runs", "0"], ["--method", ""]])
    def test_zero_runs_or_empty_method_is_one(self, tmp_path, capsys, flag):
        cfg = write_config(tmp_path / "cfg.json", runs=2)
        assert main(["train", "--config", str(cfg), *flag]) == 1
        assert capsys.readouterr().err.startswith("error: ")

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

    def test_missing_config_file_is_one(self, tmp_path):
        missing = tmp_path / "nope.json"
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["noise", "--in", str(missing), "--kind", "uniform_random",
                     "--out", str(tmp_path / "x.jsonl")]) == 1


CONFIG_COMMANDS = ("train", "ensemble", "clean", "compare", "plotdata")


class TestConfigFileErrors:
    @pytest.fixture(autouse=True)
    def in_tmp_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # plotdata makes its default out dir

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    def test_missing_config_is_one(self, tmp_path, capsys, command):
        missing = tmp_path / "nope.json"
        assert main([command, "--config", str(missing)]) == 1
        assert capsys.readouterr().err.startswith("error: no such config file")

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    def test_invalid_json_is_one(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_text('{"method": "vanilla",', encoding="utf-8")
        assert main([command, "--config", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: config is not valid JSON")


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
    def test_plotdata_bad_config_leaves_no_directory(self, tmp_path, capsys,
                                                      make_config):
        cfg = make_config(tmp_path)
        assert main(["plotdata", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "plot_data").exists()

    @pytest.mark.parametrize("payload", [[1, 2], {"per_run": 3},
                                         {"per_run": [7]},
                                         {"per_run": [{"accuracy": 0.5}]}])
    def test_plotdata_report_of_wrong_shape_is_one(self, tmp_path, capsys,
                                                   payload):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(payload), encoding="utf-8")
        out_dir = tmp_path / "plots"
        assert main(["plotdata", "--report", str(report),
                     "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err.startswith("error: report ")
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("rules", [
        [1], {"a": 1}, [{"keywords": 5, "label": 0}],
        [{"keywords": "abc", "label": 0}], [{"keywords": ["a", 2], "label": 0}],
        [{"label": 0}], [{"keywords": ["a"]}], [{"keywords": ["a"], "label": 1.5}],
    ])
    def test_noise_rules_of_wrong_shape_are_one(self, tmp_path, capsys, rules):
        corpus = tmp_path / "corpus.jsonl"
        assert main(["gen", "--classes", "3", "--instances", "30",
                     "--vocab-per-class", "8", "--out", str(corpus)]) == 0
        rules_file = tmp_path / "rules.json"
        rules_file.write_text(json.dumps(rules), encoding="utf-8")
        capsys.readouterr()
        assert main(["noise", "--in", str(corpus), "--kind", "feature_dependent",
                     "--rules", str(rules_file),
                     "--out", str(tmp_path / "noised.jsonl")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "noised.jsonl").exists()

    @staticmethod
    def corpus_command(tmp_path, command):
        """A generated 30-row corpus, the output path, and argv that runs
        `command` on the corpus."""
        corpus = tmp_path / "corpus.jsonl"
        assert main(["gen", "--classes", "3", "--instances", "30",
                     "--vocab-per-class", "8", "--out", str(corpus)]) == 0
        out = tmp_path / "out.json"
        if command == "noise":
            return corpus, out, ["noise", "--in", str(corpus), "--kind",
                                 "uniform_random", "--level", "0.2", "--out", str(out)]
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

        for name in ("run_experiment", "compare_methods", "_clean_pass"):
            monkeypatch.setattr(cli, name, reached)

    @staticmethod
    def argv(tmp_path, case):
        """argv running case's command with an unwritable output path:
        "nodir" does not exist, "afile" is a file and "adir" a directory.
        A "-config" case names the path in the config's "output" key, and a
        "-nul" one names a path holding a NUL byte."""
        (tmp_path / "afile").write_text("", encoding="utf-8")
        (tmp_path / "adir").mkdir()
        gen = ["gen", "--classes", "3", "--instances", "30",
               "--vocab-per-class", "8"]
        if case == "gen":
            return gen + ["--out", "nodir/x.jsonl"]
        if case in ("noise", "noise-matrix-dir"):
            assert main(gen + ["--out", "corpus.jsonl"]) == 0
            return ["noise", "--in", "corpus.jsonl", "--kind", "uniform_random",
                    "--level", "0.2", "--out", "noised.jsonl", "--matrix-out",
                    "adir" if case == "noise-matrix-dir" else "nodir/m.csv"]
        command = case.split("-")[0]
        configs = {
            "train": {},
            "ensemble": {"method": "boosting", "ensemble": {"members": 2}},
            "compare": {"experiments": [{"method": "vanilla"}]},
            "clean": {"method": "nc", "cleaning": {"folds": 3}},
            "plotdata": {"method": "nc", "cleaning": {"folds": 3}}}
        out = {"train": ["--out", "nodir/r.json"],
               "train-config": {"output": "nodir/r.json"},
               "train-config-nul": {"output": "r\0.json"},
               "ensemble": ["--out", "nodir/r.json"],
               "ensemble-config": {"output": "nodir/r.json"},
               "compare": ["--out", "nodir/t.csv"],
               "compare-config": {"output": "nodir/t.csv"},
               "clean": ["--out-dir", "afile/x"],
               "clean-file": ["--out-dir", "afile"],
               "clean-config": {"output": "afile/x"},
               "clean-config-nul": {"output": "x\0y"},
               "plotdata": ["--out-dir", "afile"],
               "plotdata-under-file": ["--out-dir", "afile/x"]}[case]
        overrides = {**configs[command], **(out if isinstance(out, dict) else {})}
        cfg = str(write_config(tmp_path / "cfg.json", **overrides))
        return [command, "--config", cfg, *(out if isinstance(out, list) else [])]

    @pytest.mark.parametrize("case", [
        "gen", "noise", "noise-matrix-dir", "train", "train-config",
        "train-config-nul", "ensemble", "ensemble-config", "clean", "clean-file",
        "clean-config", "clean-config-nul", "compare", "compare-config",
        "plotdata", "plotdata-under-file"])
    def test_unwritable_output_is_one(self, tmp_path, capsys, case):
        argv = self.argv(tmp_path, case)
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        # noise checks --matrix-out before it writes --out
        assert not (tmp_path / "noised.jsonl").exists()


def reference_cleaning(cfg_path, out_dir, clean=True):
    """The clean/plotdata outputs as composed from tune_threshold and
    clean_dataset, each computing its own held-out losses."""
    cfg = ExperimentConfig.from_dict(
        json.loads(cfg_path.read_text(encoding="utf-8")))
    mat = _materialize(cfg)
    train, val = _apply_noise(mat, cfg, cfg.base_seed)
    ccfg = replace(cfg.cleaning, seed=cfg.base_seed)
    tcfg = replace(cfg.train, seed=cfg.base_seed)
    out_dir.mkdir()
    threshold, diagnostics = tune_threshold(train, val, ccfg, tcfg,
                                            cfg.featurizer)
    (out_dir / "threshold_sweep.csv").write_text(
        threshold_sweep_csv(diagnostics), encoding="utf-8")
    cleaned, report = clean_dataset(train, replace(ccfg, threshold=threshold),
                                    tcfg, cfg.featurizer, val)
    (out_dir / "noise_matrices.csv").write_text(
        noise_matrices_csv(train, cleaned), encoding="utf-8")
    if clean:
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

    def test_plotdata_outputs_match_composition(self, tmp_path, cfg):
        assert main(["plotdata", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "cli")]) == 0
        reference_cleaning(cfg, tmp_path / "ref", clean=False)
        cli = self.files(tmp_path / "cli")
        assert set(cli) == {"threshold_sweep.csv", "noise_matrices.csv"}
        assert cli == self.files(tmp_path / "ref")


class TestPipelines:
    def test_gen_noise_train_from_files(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        noised = tmp_path / "noised.jsonl"
        assert main(["gen", "--classes", "3", "--instances", "240",
                     "--vocab-per-class", "20", "--seed", "7",
                     "--out", str(corpus)]) == 0
        assert main(["noise", "--in", str(corpus), "--kind", "uniform_random",
                     "--level", "0.2", "--seed", "1", "--out", str(noised),
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
        out_dir = tmp_path / "sep"
        assert main(["gen", "--preset", "separable",
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

    def test_ensemble_subcommand(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", method="boosting",
                           ensemble={"members": 2, "subset_fraction": 0.8})
        out = tmp_path / "report.json"
        assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["method"] == "boosting"
        bad = write_config(tmp_path / "bad.json", method="vanilla")
        assert main(["ensemble", "--config", str(bad)]) == 1

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


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "noisylabels.cli", "gen", "--classes", "2",
             "--instances", "20", "--vocab-per-class", "6",
             "--out", str(tmp_path / "c.jsonl")],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "wrote 20 instances" in result.stdout
