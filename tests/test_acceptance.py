"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (the summary lines also appear
under plain `pytest` because they are written to the real stdout).
"""

import functools
import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from noisylabels import (
    CleanConfig,
    CoteachSchedule,
    ExperimentConfig,
    Featurizer,
    TrainConfig,
    coteach_net2_init_seed,
    evaluate,
    featurize_texts,
    generate_synthetic_corpus,
    inject_annotation_noise,
    inject_uniform_noise,
    init_params,
    noise_level,
    predict_ensemble,
    run_experiment,
    total_variation,
    train_coteaching,
    train_vanilla,
)
from noisylabels.cli import main as cli_main
from noisylabels.model import featurize_dataset, mean_ce_and_grads, \
    predict_probs
from noisylabels.training import ceta_batch_objective
from noisylabels import CetaConfig, SplitSpec, split_dataset
from tests.test_model import dense_encoder_grad, numeric_gradient


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {description}",
                      file=sys.__stdout__, flush=True)
                raise
            print(f"criterion {number:2d} PASS  {description}",
                  file=sys.__stdout__, flush=True)
            return result
        return wrapper
    return decorate


def preset_experiment(preset_name, method, runs=5, **overrides):
    raw = {
        "method": method,
        "dataset": {"preset": preset_name},
        "runs": runs,
        "base_seed": 0,
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


@pytest.fixture(scope="module")
def yoruba_reports():
    vanilla = run_experiment(preset_experiment("yoruba_like", "vanilla"))
    nc = run_experiment(preset_experiment(
        "yoruba_like", "nc", cleaning={"folds": 5}))
    return vanilla, nc


class TestCriterion1:
    @criterion(1, "ensemble probability averaging exact to 1e-12; "
                  "m=1 reduces to single-model evaluation")
    def test_ensemble_formula_exactness(self):
        rng = np.random.default_rng(7)
        feat = Featurizer(hash_dim=64, hash_seed=0)
        corpora = {k: generate_synthetic_corpus(k, max(6, k), 6, 0.0, seed=k)
                   for k in range(2, 16)}
        for case in range(1000):
            m = int(rng.integers(1, 8))
            k = int(rng.integers(2, 16))
            corpus = corpora[k]
            members = []
            for _ in range(m):
                p = init_params(feat, n_labels=k, hidden_size=4,
                                seed=int(rng.integers(1 << 30)))
                p.encoder *= rng.uniform(0.2, 5.0)
                members.append(p)
            _, pred = predict_ensemble(members, corpus, feat)
            independent = np.zeros_like(pred.averaged)
            for probs in pred.member_probs:
                independent += probs
            independent /= m
            assert np.abs(pred.averaged - independent).max() <= 1e-12
            if m == 1:
                acc, _ = predict_ensemble(members, corpus, feat)
                assert acc == evaluate(members[0], corpus, feat)
                probs = predict_probs(members[0], featurize_dataset(feat, corpus))
                assert np.array_equal(pred.predicted, probs.argmax(axis=1))


class TestCriterion2:
    @criterion(2, "N-fold cleaning structure: disjoint exhaustive folds, "
                  "strict loss<t filter, sentinel, monotone in t")
    def test_cleaning_structure(self):
        from noisylabels import clean_dataset, fold_partition

        rng = np.random.default_rng(11)
        # fold partition properties across the full parameter ranges
        for _ in range(40):
            n = int(rng.integers(50, 2001))
            f = int(rng.integers(2, 11))
            fold_of = fold_partition(n, f, seed=int(rng.integers(1 << 30)))
            sizes = np.bincount(fold_of, minlength=f)
            assert sizes.sum() == n and len(sizes) == f
            assert sizes.min() >= n // f

        feat = Featurizer(hash_dim=256, hash_seed=0)
        tcfg = TrainConfig(steps=25, learning_rate=0.5, patience=99,
                           drop_rate=0.0, batch_size=16, eval_every=25,
                           seed=0, hidden_size=8)
        for n, folds in ((50, 2), (400, 5), (1100, 10)):
            corpus = generate_synthetic_corpus(3, n + 60, 12, 0.0,
                                               seed=n + folds)
            train, val, _ = split_dataset(
                corpus, SplitSpec(n / (n + 60), 30 / (n + 60),
                                  1 - n / (n + 60) - 30 / (n + 60), seed=1))
            train = inject_uniform_noise(train, 0.2, seed=2)
            sentinel = CleanConfig(folds=folds, threshold=1e9, seed=4)
            cleaned, report = clean_dataset(train, sentinel, tcfg, feat, val)
            assert cleaned == train
            ids = {i.id for i in train}
            kept_sets = []
            all_losses = np.array(list(report.per_instance_loss.values()))
            grid = [float(np.quantile(all_losses, q))
                    for q in (0.2, 0.4, 0.6, 0.8)] + [1e9]
            for t in grid:
                ccfg = CleanConfig(folds=folds, threshold=t, seed=4)
                _, rep = clean_dataset(train, ccfg, tcfg, feat, val)
                assert set(rep.kept_ids) | set(rep.removed_ids) == ids
                assert not set(rep.kept_ids) & set(rep.removed_ids)
                assert all(rep.per_instance_loss[i] < t for i in rep.kept_ids)
                assert all(rep.per_instance_loss[i] >= t
                           for i in rep.removed_ids)
                kept_sets.append(set(rep.kept_ids))
            for smaller, larger in zip(kept_sets, kept_sets[1:]):
                assert smaller <= larger


class TestCriterion3:
    @criterion(3, "yoruba-like regime: tuned cleaning cuts noise >= 5 points "
                  "and NC beats vanilla by >= 2 points (5-seed means)")
    def test_yoruba_cleaning_win(self, yoruba_reports):
        vanilla, nc = yoruba_reports
        reductions = [r["noise_before"] - r["noise_after"]
                      for r in nc.per_run]
        assert np.mean(reductions) >= 0.05
        assert nc.accuracy_mean - vanilla.accuracy_mean >= 0.02


class TestCriterion4:
    @criterion(4, "hausa-like regime: noise reduction strictly below the "
                  "yoruba-like regime's (5-seed means)")
    def test_hausa_regime_harder(self, yoruba_reports):
        _, yoruba_nc = yoruba_reports
        hausa_nc = run_experiment(preset_experiment(
            "hausa_like", "nc", cleaning={"folds": 5}))
        yoruba_red = np.mean([r["noise_before"] - r["noise_after"]
                              for r in yoruba_nc.per_run])
        hausa_red = np.mean([r["noise_before"] - r["noise_after"]
                             for r in hausa_nc.per_run])
        assert hausa_red < yoruba_red
        # the skewed regime keeps a majority-wrong class and high noise
        assert np.mean([r["noise_after"] for r in hausa_nc.per_run]) > 0.4


class TestCriterion5:
    @criterion(5, "30% uniform noise costs vanilla-with-early-stopping "
                  "<= 10 points versus clean training (5-seed mean)")
    def test_uniform_noise_robustness(self):
        clean = run_experiment(preset_experiment(
            "separable", "vanilla", noise={"kind": "none"}))
        noisy = run_experiment(preset_experiment(
            "separable", "vanilla",
            noise={"kind": "uniform_random", "level": 0.3}))
        assert clean.accuracy_mean - noisy.accuracy_mean <= 0.10


class TestCriterion6:
    @criterion(6, "co-teaching: exact kept sizes, tau=0 equals vanilla "
                  "step-for-step, kept sets cleaner than batches")
    def test_coteaching_mechanics(self):
        corpus = generate_synthetic_corpus(5, 2000, 40, 0.0, seed=101)
        train, val, _ = split_dataset(corpus, SplitSpec(0.7, 0.1, 0.2, seed=101))
        feat = Featurizer(hash_dim=4096, hash_seed=0)
        noisy_train = inject_uniform_noise(train, 0.3, seed=9)
        noisy_val = inject_uniform_noise(val, 0.3, seed=10)

        # exact kept-set sizes: ceil((1 - forget_rate) * batch) per step,
        # hence exactly 1 - forget_rate once the products are integral
        cfg = TrainConfig(steps=120, learning_rate=0.5, patience=99,
                          drop_rate=0.1, batch_size=10, eval_every=40,
                          seed=1, hidden_size=32)
        sched = CoteachSchedule(tau=0.4, ramp_steps=50)
        _, _, history = train_coteaching(noisy_train, noisy_val, cfg, sched,
                                         feat)
        for row in history:
            expected = math.ceil((1 - sched.forget_rate(row["step"]))
                                 * len(row["batch_indices"]))
            assert len(row["kept_net1"]) == expected
            assert len(row["kept_net2"]) == expected
        post = [h for h in history if h["step"] > 50]
        assert all(len(h["kept_net1"]) / len(h["batch_indices"])
                   == 1 - sched.forget_rate(h["step"]) for h in post)

        # tau=0: both trajectories equal independently seeded vanilla runs
        cfg0 = replace(cfg, steps=80, batch_size=16)
        p1, p2, hist = train_coteaching(noisy_train, noisy_val, cfg0,
                                        CoteachSchedule(tau=0.0, ramp_steps=1),
                                        feat)
        v1, vh1 = train_vanilla(noisy_train, noisy_val, cfg0, feat)
        v2, vh2 = train_vanilla(
            noisy_train, noisy_val,
            replace(cfg0, init_seed=coteach_net2_init_seed(cfg0)), feat)
        assert [h["train_batch_loss"] for h in hist] == \
            [h["train_batch_loss"] for h in vh1]
        assert [h["train_batch_loss_net2"] for h in hist] == \
            [h["train_batch_loss"] for h in vh2]
        assert [h.get("val_accuracy") for h in hist] == \
            [h.get("val_accuracy") for h in vh1]
        assert np.array_equal(p1.encoder, v1.encoder)
        assert np.array_equal(p1.heads[0].weights, v1.heads[0].weights)

        # selection quality: post-ramp kept sets carry fewer noisy instances
        cfg_sel = replace(cfg, steps=250, batch_size=32, eval_every=50, seed=2)
        sched_sel = CoteachSchedule(tau=0.3, ramp_steps=60)
        _, _, hist_sel = train_coteaching(noisy_train, noisy_val, cfg_sel,
                                          sched_sel, feat)
        noisy_mask = noisy_train.gold() != noisy_train.observed()
        post = [h for h in hist_sel if h["step"] > 60]
        batch_frac = np.mean([noisy_mask[h["batch_indices"]].mean()
                              for h in post])
        for key in ("kept_net1", "kept_net2"):
            kept_frac = np.mean([noisy_mask[h[key]].mean() for h in post])
            assert kept_frac < batch_frac


class TestCriterion7:
    @criterion(7, "consensus training: distance properties to 1e-12, "
                  "identical-head full consensus, beats vanilla on yoruba")
    def test_ceta_mechanics(self, yoruba_reports):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            k = int(rng.integers(2, 16))
            p = rng.dirichlet(np.ones(k))
            q = rng.dirichlet(np.ones(k))
            assert total_variation(p, p) <= 1e-12
            assert abs(total_variation(p, q) - total_variation(q, p)) <= 1e-12
            assert -1e-12 <= total_variation(p, q) <= 1 + 1e-12
        assert total_variation(np.array([1.0, 0.0]),
                               np.array([0.0, 1.0])) == 1.0

        feat = Featurizer(hash_dim=256, hash_seed=0)
        params = init_params(feat, n_labels=4, hidden_size=8, n_heads=2, seed=3)
        params.heads[1] = params.heads[0].copy()
        x = featurize_texts(feat, ["aa bb cc", "dd ee", "ff gg hh ii"])
        y = np.array([0, 1, 2])
        _, _, consensus, tv_mean = ceta_batch_objective(
            params, x, y, CetaConfig(), train_mode=False)
        assert consensus.all()
        assert tv_mean == 0.0

        vanilla, _ = yoruba_reports
        ceta = run_experiment(preset_experiment("yoruba_like", "ceta"))
        assert ceta.accuracy_mean >= vanilla.accuracy_mean


class TestCriterion8:
    @criterion(8, "analytic gradients match central finite differences "
                  "within 1e-4 relative error (100 probes)")
    def test_gradient_correctness(self):
        feat = Featurizer(hash_dim=64, hash_seed=0)
        params = init_params(feat, n_labels=3, hidden_size=8, seed=12)
        rng = np.random.default_rng(34)
        texts = ["aa bb cc dd ee", "ff gg hh", "ii jj", "kk ll mm", "nn oo"]
        x = featurize_texts(feat, texts)
        y = np.array([0, 1, 2, 1, 0])

        def objective():
            loss, _ = mean_ce_and_grads(params, x, y)
            return loss

        _, grads = mean_ce_and_grads(params, x, y)
        arrays = [(params.encoder, dense_encoder_grad(params, grads)),
                  (params.heads[0].weights, grads.heads[0][0]),
                  (params.heads[0].bias, grads.heads[0][1])]
        for _ in range(100):
            arr, analytic = arrays[rng.integers(0, len(arrays))]
            index = tuple(rng.integers(0, s) for s in arr.shape)
            numeric = numeric_gradient(objective, arr, index)
            a = analytic[index]
            denom = max(abs(a), abs(numeric), 1e-8)
            assert abs(a - numeric) / denom < 1e-4


class TestCriterion9:
    @criterion(9, "CLI experiments re-run byte-identically in "
                  "reproducible mode")
    def test_cli_determinism(self, tmp_path):
        config = {
            "method": "nc",
            "dataset": {"synthetic": {"classes": 3, "instances": 300,
                                      "vocab_per_class": 20, "overlap": 0.0,
                                      "seed": 7}},
            "split": {"train": 0.7, "validation": 0.15, "test": 0.15,
                      "seed": 7},
            "noise": {"kind": "uniform_random", "level": 0.25},
            "featurizer": {"hash_dim": 1024},
            "train": {"steps": 80, "learning_rate": 0.5, "patience": 4,
                      "eval_every": 20, "hidden_size": 16},
            "cleaning": {"folds": 3, "tuning_quantiles": [0.6, 0.9]},
            "runs": 2,
            "base_seed": 1,
            "reproducible": True,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli_main(["train", "--config", str(cfg_path),
                         "--out", str(out_a)]) == 0
        assert cli_main(["train", "--config", str(cfg_path),
                         "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

        config["method"] = "vanilla"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert cli_main(["train", "--config", str(cfg_path),
                         "--out", str(out_a)]) == 0
        assert cli_main(["train", "--config", str(cfg_path),
                         "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestCriterion10:
    @criterion(10, "injected noise measured back exactly; annotation noise "
                   "only assigns labels from each instance's pool")
    def test_noise_accounting(self):
        corpus = generate_synthetic_corpus(5, 1000, 15, 0.0, seed=55)
        for level in (0.1, 0.2, 0.3):
            noised = inject_uniform_noise(corpus, level, seed=8)
            assert noise_level(noised) == round(level * 1000) / 1000

        annotated = generate_synthetic_corpus(
            5, 1000, 15, 0.0, seed=56, annotators_per_instance=3,
            annotator_disagreement=0.8)
        noised = inject_annotation_noise(annotated, 0.25, seed=9)
        assert noise_level(noised) == round(0.25 * 1000) / 1000
        for before, after in zip(annotated, noised):
            if after.observed_label != after.gold_label:
                assert after.observed_label in before.annotator_labels
