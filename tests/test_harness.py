import copy
import csv
import functools
import io
import itertools
import json
import math
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisylabels import (
    PRESET_NAMES,
    CleanConfig,
    CoteachSchedule,
    ExperimentConfig,
    Featurizer,
    SplitSpec,
    TrainConfig,
    ValidationError,
    compare_methods,
    generate_synthetic_corpus,
    get_preset,
    inject_uniform_noise,
    noise_matrices_csv,
    run_experiment,
    save_dataset,
    split_dataset,
    threshold_sweep_csv,
)
from noisylabels import DivergenceError, Featurized, MethodError, \
    clean_dataset, evaluate, heldout_losses, retrain_on_cleaned, tune_threshold
from noisylabels import harness, training
from noisylabels.cleaning import ThresholdDiagnostic
from noisylabels.cli import _compare_configs, main
from noisylabels.harness import _apply_noise, _materialize, _noise_label


def base_config(method="vanilla", **overrides):
    raw = {
        "method": method,
        "dataset": {"synthetic": {"classes": 3, "instances": 300,
                                  "vocab_per_class": 20, "overlap": 0.0,
                                  "seed": 7}},
        "split": {"train": 0.7, "validation": 0.15, "test": 0.15, "seed": 7},
        "noise": {"kind": "uniform_random", "level": 0.2},
        "featurizer": {"hash_dim": 1024},
        "train": {"steps": 100, "learning_rate": 0.5, "patience": 4,
                  "eval_every": 20, "hidden_size": 32},
        "runs": 2,
        "base_seed": 3,
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


class TestRunExperiment:
    def test_single_run_zero_std(self):
        report = run_experiment(base_config(runs=1))
        assert report.accuracy_std == 0.0
        assert len(report.per_run) == 1

    def test_deterministic_reports(self):
        cfg = base_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.to_json() == b.to_json()

    def test_aggregates_recomputable(self):
        report = run_experiment(base_config(runs=3))
        accs = [r["accuracy"] for r in report.per_run]
        assert abs(report.accuracy_mean - np.mean(accs)) < 1e-12
        assert abs(report.accuracy_std - np.std(accs)) < 1e-12

    def test_noise_regenerated_per_run(self):
        report = run_experiment(base_config(runs=3))
        # the flip count is forced, so every run measures the same level,
        # but the seeds differ per run
        levels = {r["train_noise_level"] for r in report.per_run}
        assert levels == {round(0.2 * 210) / 210}
        assert [r["seed"] for r in report.per_run] == [3, 4, 5]

    def test_report_holds_no_wall_clock(self):
        report = run_experiment(base_config(runs=1))
        assert "wall_clock_seconds" not in json.loads(report.to_json())

    def test_reproducible_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "vanilla", "reproducible": False,
                                   "dataset": {"preset": "separable"}}),
                       encoding="utf-8")
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err == \
            "error: unknown config keys: ['reproducible']\n"
        assert not (tmp_path / "r.json").exists()

    def test_nc_method_records_cleaning_stats(self):
        cfg = base_config(
            method="nc", runs=1,
            cleaning={"folds": 3, "tuning_quantiles": [0.6, 0.9]})
        report = run_experiment(cfg)
        run = report.per_run[0]
        assert {"threshold_used", "cleaned_size", "noise_before",
                "noise_after"} <= set(run)
        assert run["cleaned_size"] > 0

    def test_tuned_nc_matches_public_composition(self):
        # the harness cleans in one pass and keeps the winning candidate's
        # model; it must agree with tuning, cleaning and retraining apart
        cfg = base_config(method="nc", runs=1,
                          cleaning={"folds": 3,
                                    "tuning_quantiles": [0.5, 0.7, 0.9]})
        run = run_experiment(cfg).per_run[0]
        mat = _materialize(cfg)
        train, val = _apply_noise(mat, cfg, cfg.base_seed)
        ccfg = replace(cfg.cleaning, seed=cfg.base_seed)
        tcfg = replace(cfg.train, seed=cfg.base_seed)
        data = Featurized.of(cfg.featurizer, train, val)
        threshold, _, _ = tune_threshold(
            data, heldout_losses(data, ccfg, tcfg)[0], ccfg, tcfg)
        cleaned, report, _, _ = clean_dataset(
            train, replace(ccfg, threshold=threshold), tcfg, cfg.featurizer, val)
        accuracy = evaluate(retrain_on_cleaned(cleaned, val, tcfg, cfg.featurizer),
                            mat.test, cfg.featurizer)
        assert run == {"threshold_used": threshold,
                       "cleaned_size": len(cleaned),
                       "noise_before": report.noise_before,
                       "noise_after": report.noise_after,
                       "accuracy": accuracy,
                       "seed": cfg.base_seed,
                       "train_noise_level": report.noise_before}

    def test_only_method_errors_become_failed_runs(self, monkeypatch):
        def diverge_on_seed_3(method, data, cfg, coteach, ceta):
            if cfg.seed == 3:
                raise DivergenceError("diverged")
            return real(method, data, cfg, coteach, ceta)

        real = harness._train
        monkeypatch.setattr(harness, "_train", diverge_on_seed_3)
        report = run_experiment(base_config())
        assert report.partial
        assert report.per_run[0] == {"seed": 3,
                                     "error": "DivergenceError: diverged"}
        assert "accuracy" in report.per_run[1]

        def buggy(method, data, cfg, coteach, ceta):
            raise TypeError("a bug, not a method failure")

        monkeypatch.setattr(harness, "_train", buggy)
        with pytest.raises(TypeError, match="a bug"):
            run_experiment(base_config())

    def test_diverging_training_is_a_failed_run(self, monkeypatch):
        # seed 3's training goes non-finite mid-run; the other run completes
        def huge_lr_on_seed_3(method, data, cfg, coteach, ceta):
            if cfg.seed == 3:
                cfg = replace(cfg, learning_rate=1e8)
            return real(method, data, cfg, coteach, ceta)

        real = harness._train
        monkeypatch.setattr(harness, "_train", huge_lr_on_seed_3)
        with np.errstate(over="ignore", invalid="ignore"):
            report = run_experiment(base_config())
        assert report.partial
        assert report.per_run[0]["seed"] == 3
        assert report.per_run[0]["error"].startswith("DivergenceError: non-finite")
        assert "accuracy" in report.per_run[1]

    def test_every_run_failing_raises(self, no_consensus):
        with pytest.raises(MethodError, match="every run failed; first error: "
                           "ConsensusCollapseError: no consensus"):
            run_experiment(base_config(method="ceta", runs=2))
        # both runs trained until their collapse: one epoch of the 210
        # training rows each
        assert len(no_consensus) == 2 * (210 // TrainConfig().batch_size)

    def test_ensemble_methods_run(self):
        for method, extra in (("hme", {"ensemble": {"members": 2}}),
                              ("boosting", {"ensemble": {"members": 2,
                                                         "subset_fraction": 0.8}}),
                              ("hte", {})):
            report = run_experiment(base_config(method=method, runs=1, **extra))
            assert 0.0 <= report.accuracy_mean <= 1.0
            assert report.per_run[0]["n_members"] >= 1

    def test_noisy_test_split_rejected(self, tmp_path):
        corpus = generate_synthetic_corpus(3, 200, 15, 0.0, seed=4)
        noisy = inject_uniform_noise(corpus, 0.3, seed=1)
        path = tmp_path / "noisy.jsonl"
        save_dataset(noisy, path, "jsonl")
        cfg = base_config(dataset={"path": str(path)},
                          noise={"kind": "none"}, runs=1)
        with pytest.raises(ValidationError, match="test split"):
            run_experiment(cfg)

    @pytest.mark.parametrize("method", harness.METHODS)
    def test_empty_test_split_rejected_before_training(self, monkeypatch, method):
        def reached(*args, **kwargs):
            raise AssertionError("training started without a test split")

        monkeypatch.setattr(training.Featurized, "of", reached)
        cfg = base_config(method=method,
                          split={"train": 0.8, "validation": 0.2, "test": 0.0})
        with pytest.raises(ValidationError, match="test split is empty"):
            run_experiment(cfg)

    def test_annotation_noise_path(self):
        cfg = base_config(
            dataset={"synthetic": {"classes": 3, "instances": 300,
                                   "vocab_per_class": 20, "overlap": 0.0,
                                   "seed": 7, "annotators_per_instance": 3,
                                   "annotator_disagreement": 0.8}},
            noise={"kind": "pseudo_real_world", "level": 0.2},
            runs=1)
        report = run_experiment(cfg)
        assert report.per_run[0]["train_noise_level"] == \
            pytest.approx(round(0.2 * 210) / 210)


class TestConfigValidation:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match="unknown config keys"):
            ExperimentConfig.from_dict({"method": "vanilla",
                                        "dataset": {"preset": "separable"},
                                        "bogus": 1})

    def test_missing_sections_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict({"method": "vanilla"})
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict({"dataset": {"preset": "separable"}})

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError, match="method"):
            base_config(method="bert")

    def test_unknown_preset_rejected(self):
        cfg = base_config(dataset={"preset": "imagenet"})
        with pytest.raises(ValidationError, match="preset"):
            run_experiment(cfg)

    def test_bad_train_section(self):
        with pytest.raises(ValidationError, match="train"):
            base_config(train={"steps": 100, "nonsense": 5})


def materialize_and_noise(raw):
    """Everything run_experiment does with a config before it trains."""
    cfg = ExperimentConfig.from_dict(raw)
    return _apply_noise(_materialize(cfg), cfg, cfg.base_seed)


SMALL_TRAIN = {"steps": 10, "learning_rate": 0.4, "patience": 2,
               "warmup_steps": 2, "weight_decay": 1e-4, "drop_rate": 0.1,
               "batch_size": 8, "eval_every": 5, "hidden_size": 8,
               "init_seed": 2}


@pytest.fixture(scope="module")
def valid_configs(tmp_path_factory):
    """Valid configs covering every source, noise kind and section."""
    corpus = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    save_dataset(generate_synthetic_corpus(3, 60, 8, 0.0, seed=3,
                                           annotators_per_instance=2,
                                           annotator_disagreement=0.5),
                 corpus, "jsonl")
    synthetic = {"classes": 3, "instances": 60, "vocab_per_class": 8,
                 "overlap": 0.1, "seed": 2, "class_weights": [1.0, 1.2, 0.9],
                 "tokens_per_text": [4, 8], "global_token_fraction": 0.05}
    split = {"train": 0.6, "validation": 0.2, "test": 0.2, "seed": 1}
    return [
        {"method": "nc", "dataset": {"synthetic": synthetic}, "split": split,
         "noise": {"kind": "feature_dependent", "fallback": "random", "seed": 4,
                   "rules": [{"keywords": ["tok0001", "tok0009"], "label": 1},
                             {"keywords": ["tok0017"], "label": "class2"}]},
         "featurizer": {"hash_dim": 256, "ngram_orders": [1, 2], "hash_seed": 1},
         "train": SMALL_TRAIN,
         "cleaning": {"folds": 3, "tuning_quantiles": [0.5, 0.9]},
         "runs": 2, "base_seed": 1, "noise_validation": False},
        {"method": "hme", "dataset": {"path": str(corpus), "format": "jsonl"},
         "split": split, "noise": {"kind": "pseudo_real_world", "level": 0.1},
         "ensemble": {"members": 2, "subset_fraction": 0.8},
         "coteaching": {"tau": 0.3, "ramp_steps": 5},
         "ceta": {"consensus_rule": "heads_agree", "lambda_w": 0.2},
         "cleaning": {"folds": 2, "threshold": 0.5, "tuning_grid": [0.1, 0.2]}},
        {"method": "vanilla", "dataset": {"preset": "separable", "corpus_seed": 5},
         "noise": {"kind": "uniform_random", "level": 0.1}, "train": SMALL_TRAIN},
    ]


def nodes(obj, path=()):
    """(path, value) of obj and of everything nested in it."""
    yield path, obj
    children = obj.items() if isinstance(obj, dict) \
        else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in children:
        yield from nodes(child, path + (key,))


def mutated(raw, path, value=None, drop=False):
    out = copy.deepcopy(raw)
    *parents, last = path
    target = out
    for key in parents:
        target = target[key]
    if drop:
        del target[last]
    else:
        target[last] = value
    return out


# keys whose absence leaves a config that cannot run
REQUIRED_KEYS = {"method", "dataset", "preset", "synthetic", "path", "classes",
                 "instances", "kind", "rules", "keywords", "label"}
# one value of each JSON kind but null, which means "absent"
OTHER_KIND = {"str": "x", "number": 7, "bool": True, "list": ["x"]}


def json_kind(value) -> str:
    if isinstance(value, bool):
        return "bool"
    return "number" if isinstance(value, (int, float)) else type(value).__name__


@st.composite
def malformed(draw, raw):
    """raw with one key required dropped, one unknown key added to a
    section, one section replaced by a non-object, or one value (a scalar,
    a list or a list element) replaced by one of another JSON kind."""
    everything = list(nodes(raw))
    how = draw(st.sampled_from(["drop", "add", "non-object", "retype"]))
    if how == "drop":
        path = draw(st.sampled_from([p for p, _ in everything
                                     if p and p[-1] in REQUIRED_KEYS]))
        return mutated(raw, path, drop=True)
    sections = [p for p, v in everything if isinstance(v, dict)]
    if how == "add":
        path = draw(st.sampled_from(sections))
        key = draw(st.sampled_from(["extra", "levle", "tarin", "colours"]))
        return mutated(raw, path + (key,), draw(st.sampled_from([0, "x"])))
    if how == "non-object":
        path = draw(st.sampled_from(sections[1:]))
        return mutated(raw, path, draw(st.sampled_from([5, "x", [1], [], True])))
    path, value = draw(st.sampled_from([(p, v) for p, v in everything
                                        if not isinstance(v, dict)]))
    kinds = sorted(set(OTHER_KIND) - {json_kind(value)})
    return mutated(raw, path, OTHER_KIND[draw(st.sampled_from(kinds))])


@pytest.fixture(scope="module")
def corpus_rows(tmp_path_factory):
    """The rows of a 60-instance JSONL corpus with gold and annotator labels
    over class0..class2, as save_dataset writes them."""
    corpus = tmp_path_factory.mktemp("rows") / "corpus.jsonl"
    save_dataset(generate_synthetic_corpus(3, 60, 8, 0.0, seed=3,
                                           annotators_per_instance=2,
                                           annotator_disagreement=0.5),
                 corpus, "jsonl")
    return [json.loads(line)
            for line in corpus.read_text(encoding="utf-8").splitlines()]


@st.composite
def mutated_corpus(draw, rows):
    """The JSONL lines of rows with one row's label or gold label padded with
    whitespace, one row's key dropped or given a value of another JSON kind,
    one id repeated, one line made no JSON object, or all but a few rows
    dropped."""
    rows = copy.deepcopy(rows)
    i = draw(st.integers(0, len(rows) - 1))
    how = draw(st.sampled_from(["pad", "drop", "retype", "repeat_id",
                                "not_object", "truncate"]))
    if how == "pad":
        key = draw(st.sampled_from(["label", "gold_label"]))
        pad = draw(st.sampled_from([" ", "\t", "\u00a0"]))
        rows[i][key] = draw(st.sampled_from([pad + rows[i][key],
                                             rows[i][key] + pad]))
    elif how in ("drop", "retype"):
        key = draw(st.sampled_from(sorted(rows[i])))
        if how == "drop":
            del rows[i][key]
        else:
            rows[i][key] = draw(st.sampled_from(
                ["class9", 7, True, None, ["class1"], {"k": 1}]))
    elif how == "repeat_id":
        rows[i]["id"] = rows[(i + 1) % len(rows)]["id"]
    elif how == "truncate":
        rows = rows[:draw(st.sampled_from([0, 1, 2, 5]))]
    lines = [json.dumps(row) for row in rows]
    if how == "not_object":
        lines[i] = draw(st.sampled_from(["{", "x", "[]", "null", '"row"']))
    return lines


@st.composite
def mutated_labels(draw, labels):
    """labels with one name dropped, repeated, padded or added, a blank
    line inserted, the order reversed, or every name dropped."""
    labels = list(labels)
    i = draw(st.integers(0, len(labels) - 1))
    how = draw(st.sampled_from(["drop", "repeat", "pad", "add", "blank",
                                "reverse", "empty"]))
    if how == "drop":
        del labels[i]
    elif how == "repeat":
        labels.insert(i, labels[i])
    elif how == "pad":
        labels[i] = f" {labels[i]}\t"
    elif how == "add":
        labels.append("class9")
    elif how == "blank":
        labels.insert(i, "")
    elif how == "reverse":
        labels.reverse()
    else:
        labels = []
    return labels


class TestMalformedConfigProperties:
    def test_valid_configs_materialize(self, valid_configs):
        for raw in valid_configs:
            train, val = materialize_and_noise(raw)
            assert len(train) and len(val)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_malformed_configs_raise_validation_error(self, valid_configs, data):
        raw = data.draw(malformed(data.draw(st.sampled_from(valid_configs))))
        with pytest.raises(ValidationError):
            materialize_and_noise(raw)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_gen_exits_zero_or_one(self, valid_configs, data):
        # gen reads no noise section, so a malformed one may still exit 0
        raw = data.draw(malformed(data.draw(st.sampled_from(valid_configs))))
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "data"
            cfg.write_text(json.dumps(raw), encoding="utf-8")
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(["gen", "--config", str(cfg), "--out-dir", str(out)])
            assert code in (0, 1)
            assert "Traceback" not in err.getvalue()
            if code == 1:
                assert err.getvalue().startswith("error: ")
                assert not out.exists()

    # a 60-instance corpus, a 5-step training and one run a cell keep each
    # compare to a few milliseconds
    COMPARE = {
        "dataset": {"synthetic": {"classes": 3, "instances": 60,
                                  "vocab_per_class": 8, "overlap": 0.0,
                                  "seed": 2}},
        "split": {"train": 0.6, "validation": 0.2, "test": 0.2, "seed": 1},
        "featurizer": {"hash_dim": 256},
        "train": {"steps": 5, "batch_size": 8, "eval_every": 5,
                  "hidden_size": 8},
        "runs": 1,
        "experiments": [
            {"method": "vanilla",
             "noise": {"kind": "uniform_random", "level": 0.2}},
            {"method": "coteaching", "noise": {"kind": "none"}},
        ],
    }

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_compare_exits_zero_one_or_two(self, data):
        raw = data.draw(malformed(self.COMPARE))
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "table.csv"
            cfg.write_text(json.dumps(raw), encoding="utf-8")
            if self.run(["compare", "--config", str(cfg), "--out", str(out)]):
                assert not out.exists()

    # the input set noise and clean start from: a 60-row JSONL corpus with
    # gold and annotator labels, with or without its labels.txt, and a config
    # reading it; a 5-step training keeps each clean to a few milliseconds
    CORPUS_CONFIG = {
        "method": "nc",
        "split": {"train": 0.6, "validation": 0.2, "test": 0.2, "seed": 1},
        "featurizer": {"hash_dim": 256},
        "train": {"steps": 5, "batch_size": 8, "eval_every": 5,
                  "hidden_size": 8},
        "cleaning": {"folds": 2, "tuning_quantiles": [0.5, 0.9]},
        "runs": 1,
    }

    @classmethod
    def corpus_inputs(cls, data, rows, tmp: Path) -> Path:
        """Writes corpus.jsonl, labels.txt (unless drawn away) and cfg.json
        into tmp, one of them mutated; returns the config's path."""
        target = data.draw(st.sampled_from(["config", "corpus", "labels"]))
        labels = ["class0", "class1", "class2"]
        if target == "corpus":
            lines = data.draw(mutated_corpus(rows))
        else:
            lines = [json.dumps(row) for row in rows]
        (tmp / "corpus.jsonl").write_text("".join(f"{line}\n" for line in lines),
                                          encoding="utf-8")
        if target == "labels" or data.draw(st.booleans()):
            if target == "labels":
                labels = data.draw(mutated_labels(labels))
            (tmp / "labels.txt").write_text("".join(f"{name}\n" for name in labels),
                                            encoding="utf-8")
        raw = {**cls.CORPUS_CONFIG,
               "dataset": {"path": str(tmp / "corpus.jsonl"), "format": "jsonl"},
               "noise": data.draw(st.sampled_from([
                   {"kind": "none"}, {"kind": "uniform_random", "level": 0.2}]))}
        if target == "config":
            raw = data.draw(malformed(raw))
        (tmp / "cfg.json").write_text(json.dumps(raw), encoding="utf-8")
        return tmp / "cfg.json"

    @staticmethod
    def run(argv) -> int:
        """main(argv)'s exit code, after checking it and its stderr."""
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code:
            assert err.getvalue().startswith(
                "error: " if code == 1 else "method failure: ")
        return code

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_noise_exits_zero_one_or_two(self, corpus_rows, data):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cfg = self.corpus_inputs(data, corpus_rows, tmp)
            out = tmp / "out"
            out.mkdir()
            code = self.run(["noise", "--config", str(cfg), "--in",
                             str(tmp / "corpus.jsonl"), "--out",
                             str(out / "noised.jsonl"), "--matrix-out",
                             str(out / "matrix.csv")])
            if code:
                assert not any(out.iterdir())

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_clean_exits_zero_one_or_two(self, corpus_rows, data):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cfg = self.corpus_inputs(data, corpus_rows, tmp)
            out = tmp / "out"
            code = self.run(["clean", "--config", str(cfg), "--out-dir", str(out)])
            if code:
                assert not out.exists()

    # every method a train config can name, with each section it reads, on
    # the compare property's 60-instance corpus and 5-step training
    TRAIN = {**{k: v for k, v in COMPARE.items() if k != "experiments"},
             "noise": {"kind": "uniform_random", "level": 0.2},
             "coteaching": {"tau": 0.3, "ramp_steps": 3},
             "ceta": {"consensus_rule": "heads_agree", "lambda_w": 0.2},
             "ensemble": {"members": 2, "subset_fraction": 0.8},
             "cleaning": {"folds": 2, "tuning_quantiles": [0.5, 0.9]}}

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_train_exits_zero_one_or_two(self, data):
        # half the draws keep the config well-typed and put an edge value
        # into one number, which may still train
        raw = {"method": data.draw(st.sampled_from(harness.METHODS)), **self.TRAIN}
        if data.draw(st.booleans()):
            raw = data.draw(malformed(raw))
        else:
            path = data.draw(st.sampled_from([
                p for p, v in nodes(raw) if json_kind(v) == "number"]))
            raw = mutated(raw, path, data.draw(st.sampled_from(
                [0, -1, 1, 2, 17, 0.999, 1.0, 1e-9, 1e9, 2**40])))
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "report.json"
            cfg.write_text(json.dumps(raw), encoding="utf-8")
            if self.run(["train", "--config", str(cfg), "--out", str(out)]):
                assert not out.exists()

    @pytest.fixture(scope="class")
    def train_report(self, tmp_path_factory):
        """A real two-run train --out report."""
        tmp = tmp_path_factory.mktemp("report")
        cfg, out = tmp / "cfg.json", tmp / "report.json"
        cfg.write_text(json.dumps({"method": "vanilla", **self.TRAIN, "runs": 2}),
                       encoding="utf-8")
        assert self.run(["train", "--config", str(cfg), "--out", str(out)]) == 0
        return json.loads(out.read_text(encoding="utf-8"))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_plotdata_exits_zero_or_one(self, train_report, data):
        # half the draws change the per-run records plotdata reads
        scope = data.draw(st.sampled_from([(), ("per_run",)]))
        path = data.draw(st.sampled_from([p for p, _ in nodes(train_report)
                                          if len(p) > len(scope)
                                          and p[:len(scope)] == scope]))
        if data.draw(st.booleans()) and isinstance(path[-1], str):
            report = mutated(train_report, path, drop=True)
        else:
            report = mutated(train_report, path, data.draw(st.sampled_from(
                [*OTHER_KIND.values(), None, {}, 0.5, -1, math.nan, math.inf])))
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "report.json", Path(tmp) / "plots"
            path.write_text(json.dumps(report), encoding="utf-8")
            if self.run(["plotdata", "--report", str(path), "--out-dir", str(out)]):
                assert not out.exists()
                return
            rows = list(csv.reader(io.StringIO(
                (out / "accuracy_runs.csv").read_text(encoding="utf-8"))))
            assert rows[0] == ["run", "seed", "accuracy"]
            for row in rows[1:]:
                assert len(row) == 3 and row[0].isdigit(), row
                assert re.fullmatch(r"-?[0-9]+", row[1]), row
                assert math.isfinite(float(row[2])), row


class TestOneDefaultPerKnob:
    """A preset config whose train, featurizer or coteaching section restates
    any subset of the defaults names the same model as one without it."""

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    @pytest.mark.parametrize("section, default", [
        ("train", TrainConfig()), ("featurizer", Featurizer()),
        ("coteaching", CoteachSchedule())],
        ids=["train", "featurizer", "coteaching"])
    def test_restated_defaults_change_nothing(self, preset, section, default):
        raw = {"method": "coteaching", "dataset": {"preset": preset}}
        plain = ExperimentConfig.from_dict(raw)
        # a train section takes no seed: run r's seed is base_seed + r
        values = {k: list(v) if isinstance(v, tuple) else v
                  for k, v in asdict(default).items() if k != "seed"}
        for n in range(len(values) + 1):
            for keys in itertools.combinations(values, n):
                restated = ExperimentConfig.from_dict(
                    {**raw, section: {k: values[k] for k in keys}})
                assert restated == plain, keys
        assert _materialize(restated) == _materialize(plain)
        assert (plain.featurizer, plain.train) == (
            get_preset(preset).featurizer, get_preset(preset).train_config)


def test_readme_configs_parse():
    """README's experiment config, and every cell of its compare config
    built the way compare builds it, materialize and noise."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [json.loads(block) for block in
              re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)]
    assert [("experiments" in raw) for raw in blocks] == [False, True]
    for raw in blocks:
        for cfg in _compare_configs(raw) if "experiments" in raw \
                else [ExperimentConfig.from_dict(raw)]:
            train, val = _apply_noise(_materialize(cfg), cfg, cfg.base_seed)
            assert len(train) and len(val)


class TestCompareMethods:
    def test_single_cell_matches_run_experiment(self):
        cfg = base_config(runs=1)
        table, reports = compare_methods([cfg])
        assert table.rows == ["vanilla (clean data)", "vanilla"]
        assert table.columns == ["uniform_random 20%"]
        solo = run_experiment(cfg)
        assert reports[1].to_json() == solo.to_json()
        expected = (f"{100 * solo.accuracy_mean:.2f} ± "
                    f"{100 * solo.accuracy_std:.2f}")
        assert table.cells[("vanilla", "uniform_random 20%")] == expected

    def test_every_report_matches_run_experiment(self):
        # the cells and the clean row train on the one materialized dataset,
        # and each equals its own run_experiment, which materializes anew
        cfgs = [base_config(runs=1),
                base_config(method="coteaching", runs=1,
                            noise={"kind": "uniform_random", "level": 0.3}),
                base_config(runs=1, noise={"kind": "none"},
                            featurizer={"hash_dim": 512})]
        table, reports = compare_methods(cfgs)
        clean = replace(cfgs[0], method="vanilla", noise={"kind": "none"})
        assert [r.to_json() for r in reports] == \
            [run_experiment(cfg).to_json() for cfg in [clean, *cfgs]]
        assert table.rows == ["vanilla (clean data)", "vanilla", "coteaching"]
        assert table.columns == ["uniform_random 20%", "uniform_random 30%", "none"]
        assert len(table.cells) == 3 + 3

    def test_generates_the_corpus_once(self, monkeypatch):
        real, calls = harness.generate_synthetic_corpus, []

        @functools.wraps(real)  # checked_call reads the signature
        def counted(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "generate_synthetic_corpus", counted)
        compare_methods([base_config(runs=1, train={"steps": 5, "eval_every": 5}),
                         base_config(method="coteaching", runs=1,
                                     train={"steps": 5, "eval_every": 5})])
        assert len(calls) == 1

    def test_three_noise_levels_three_columns(self):
        cfgs = [base_config(runs=1,
                            noise={"kind": "uniform_random", "level": lvl})
                for lvl in (0.1, 0.2, 0.3)]
        table, _ = compare_methods(cfgs)
        assert table.columns == ["uniform_random 10%", "uniform_random 20%",
                                 "uniform_random 30%"]
        assert table.rows[0] == "vanilla (clean data)"
        csv_text = table.to_csv()
        assert csv_text.splitlines()[0] == ("method,uniform_random 10%,"
                                            "uniform_random 20%,"
                                            "uniform_random 30%")
        text = table.to_text()
        assert text.splitlines()[0].startswith("method")

    def test_row_order_follows_config_order(self):
        cfgs = [base_config(method=m, runs=1) for m in ("ceta", "vanilla")]
        table, _ = compare_methods(cfgs)
        assert table.rows == ["vanilla (clean data)", "ceta", "vanilla"]

    def test_mismatched_dataset_rejected(self):
        a = base_config()
        b = base_config(dataset={"synthetic": {"classes": 4, "instances": 300,
                                               "vocab_per_class": 20,
                                               "overlap": 0.0, "seed": 7}})
        with pytest.raises(ValidationError, match="share"):
            compare_methods([a, b])


class TestPlotData:
    def test_empty_diagnostics_header_only(self):
        assert threshold_sweep_csv([]) == "threshold,cleaned_size,val_accuracy\n"

    def test_five_point_sweep_five_rows(self):
        diags = [ThresholdDiagnostic(0.1 * i, 10 * i, 0.5 + 0.01 * i)
                 for i in range(1, 6)]
        lines = threshold_sweep_csv(diags).strip().split("\n")
        assert len(lines) == 6

    def test_matrix_csv_row_sums_match_class_counts(self):
        corpus = generate_synthetic_corpus(3, 200, 15, 0.0, seed=4)
        noisy = inject_uniform_noise(corpus, 0.3, seed=1)
        cleaned = noisy.select(range(0, 150))
        text = noise_matrices_csv(noisy, cleaned)
        blocks = text.split("# after\n")
        before_rows = [line for line in blocks[0].splitlines()
                       if line and not line.startswith(("#", "gold"))]
        gold_counts = np.bincount(noisy.gold(), minlength=3)
        for row, expected in zip(before_rows, gold_counts):
            assert sum(int(v) for v in row.split(",")[1:]) == expected

    def test_noise_label_formatting(self):
        assert _noise_label(base_config()) == "uniform_random 20%"
        assert _noise_label(base_config(noise={"kind": "none"})) == "none"
        assert _noise_label(base_config(
            dataset={"preset": "yoruba_like"}, noise=None)) == "preset"
