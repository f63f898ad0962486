import copy
import itertools
import json
import re
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
from noisylabels import DivergenceError, clean_dataset, retrain_on_cleaned, \
    tune_threshold
from noisylabels import harness, training
from noisylabels.cleaning import ThresholdDiagnostic
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

    def test_wall_clock_excluded_in_reproducible_mode(self):
        report = run_experiment(base_config(runs=1))
        assert report.wall_clock_seconds is None
        loud = run_experiment(base_config(runs=1, reproducible=False))
        assert loud.wall_clock_seconds > 0

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
        threshold, _ = tune_threshold(train, val, ccfg, tcfg, cfg.featurizer)
        cleaned, report = clean_dataset(train, replace(ccfg, threshold=threshold),
                                        tcfg, cfg.featurizer, val)
        _, accuracy = retrain_on_cleaned(cleaned, val, tcfg, cfg.featurizer,
                                         mat.test)
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

        real = harness._train_method
        monkeypatch.setattr(harness, "_train_method", diverge_on_seed_3)
        report = run_experiment(base_config())
        assert report.partial
        assert report.per_run[0] == {"seed": 3,
                                     "error": "DivergenceError: diverged"}
        assert "accuracy" in report.per_run[1]

        def buggy(method, data, cfg, coteach, ceta):
            raise TypeError("a bug, not a method failure")

        monkeypatch.setattr(harness, "_train_method", buggy)
        with pytest.raises(TypeError, match="a bug"):
            run_experiment(base_config())

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
         "runs": 2, "base_seed": 1, "noise_validation": False,
         "reproducible": True, "output": "report.json"},
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
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks
    for block in blocks:
        train, val = materialize_and_noise(json.loads(block))
        assert len(train) and len(val)


class TestCompareMethods:
    def test_single_cell_matches_run_experiment(self):
        cfg = base_config(runs=1)
        table, reports = compare_methods([cfg], include_clean_baseline=False)
        assert table.rows == ["vanilla"]
        assert table.columns == ["uniform_random 20%"]
        solo = run_experiment(cfg)
        expected = (f"{100 * solo.accuracy_mean:.2f} ± "
                    f"{100 * solo.accuracy_std:.2f}")
        assert table.cells[("vanilla", "uniform_random 20%")] == expected

    def test_three_noise_levels_three_columns(self):
        cfgs = [base_config(runs=1,
                            noise={"kind": "uniform_random", "level": lvl})
                for lvl in (0.1, 0.2, 0.3)]
        table, _ = compare_methods(cfgs, include_clean_baseline=True)
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
        table, _ = compare_methods(cfgs, include_clean_baseline=False)
        assert table.rows == ["ceta", "vanilla"]

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
