import json
from dataclasses import replace

import numpy as np
import pytest

from noisylabels import (
    CleanConfig,
    CleaningReport,
    Dataset,
    EmptyCleanedSetError,
    Featurized,
    SplitSpec,
    TrainConfig,
    ValidationError,
    clean_dataset,
    evaluate,
    fold_partition,
    generate_synthetic_corpus,
    heldout_losses,
    inject_uniform_noise,
    retrain_on_cleaned,
    split_dataset,
    train_vanilla,
    tune_threshold,
)
from noisylabels import cleaning
from noisylabels.data import Instance


@pytest.fixture(scope="module")
def noisy_setup(tiny_featurizer):
    corpus = generate_synthetic_corpus(4, 500, 15, 0.0, seed=21)
    train, val, test = split_dataset(corpus, SplitSpec(0.7, 0.15, 0.15, seed=21))
    noisy_train = inject_uniform_noise(train, 0.25, seed=3)
    noisy_val = inject_uniform_noise(val, 0.25, seed=4)
    cfg = TrainConfig(steps=80, learning_rate=0.5, patience=99, drop_rate=0.0,
                      batch_size=16, eval_every=40, seed=0, hidden_size=16)
    return noisy_train, noisy_val, test, cfg


def strip_gold(dataset):
    instances = tuple(
        Instance(i.id, i.text, i.observed_label, None, i.annotator_labels)
        for i in dataset.instances)
    return Dataset(dataset.label_set, instances, dataset.split)


class TestFoldPartition:
    def test_disjoint_exhaustive_balanced(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(50, 2000))
            f = int(rng.integers(2, 11))
            fold_of = fold_partition(n, f, seed=int(rng.integers(1 << 30)))
            assert fold_of.shape == (n,)
            sizes = np.bincount(fold_of, minlength=f)
            assert sizes.sum() == n
            assert sizes.max() - sizes.min() <= 1

    def test_more_folds_than_instances_rejected(self):
        with pytest.raises(ValidationError):
            fold_partition(3, 5, seed=0)

    @pytest.mark.parametrize("folds", [0, -1])
    def test_fewer_than_one_fold_rejected(self, folds):
        with pytest.raises(ValidationError, match="into"):
            fold_partition(5, folds, seed=0)

    def test_deterministic(self):
        assert np.array_equal(fold_partition(100, 5, seed=9),
                              fold_partition(100, 5, seed=9))


class TestCleanDataset:
    def test_sentinel_threshold_keeps_everything(self, noisy_setup,
                                                 tiny_featurizer):
        train, val, _, cfg = noisy_setup
        ccfg = CleanConfig(folds=4, threshold=1e9, seed=5)
        cleaned, report, _, _ = clean_dataset(train, ccfg, cfg, tiny_featurizer, val)
        assert cleaned == train
        assert report.removed_ids == ()
        assert set(report.kept_ids) == {i.id for i in train}

    def test_zero_threshold_raises_empty(self, noisy_setup, tiny_featurizer):
        train, val, _, cfg = noisy_setup
        ccfg = CleanConfig(folds=4, threshold=0.0, seed=5)
        with pytest.raises(EmptyCleanedSetError):
            clean_dataset(train, ccfg, cfg, tiny_featurizer, val)

    def test_strict_filtering_and_partition(self, noisy_setup, tiny_featurizer):
        train, val, _, cfg = noisy_setup
        ccfg = CleanConfig(folds=4, threshold=0.7, seed=5)
        cleaned, report, _, _ = clean_dataset(train, ccfg, cfg, tiny_featurizer, val)
        assert set(report.kept_ids) | set(report.removed_ids) == \
            {i.id for i in train}
        assert not set(report.kept_ids) & set(report.removed_ids)
        for instance_id in report.kept_ids:
            assert report.per_instance_loss[instance_id] < 0.7
        for instance_id in report.removed_ids:
            assert report.per_instance_loss[instance_id] >= 0.7

    def test_equality_removes(self, noisy_setup, tiny_featurizer):
        # an instance whose loss exactly equals the threshold is removed
        train, val, _, cfg = noisy_setup
        probe = CleanConfig(folds=4, threshold=1e9, seed=5)
        _, report, _, _ = clean_dataset(train, probe, cfg, tiny_featurizer, val)
        some_id = report.kept_ids[len(report.kept_ids) // 2]
        exact = report.per_instance_loss[some_id]
        ccfg = CleanConfig(folds=4, threshold=exact, seed=5)
        _, report2, _, _ = clean_dataset(train, ccfg, cfg, tiny_featurizer, val)
        assert some_id in report2.removed_ids

    def test_monotone_in_threshold(self, noisy_setup, tiny_featurizer):
        train, val, _, cfg = noisy_setup
        kept_sets = []
        for t in (0.2, 0.5, 1.0, 2.0, 1e9):
            ccfg = CleanConfig(folds=4, threshold=t, seed=5)
            _, report, _, _ = clean_dataset(train, ccfg, cfg, tiny_featurizer, val)
            kept_sets.append(set(report.kept_ids))
        for smaller, larger in zip(kept_sets, kept_sets[1:]):
            assert smaller <= larger

    def test_order_preserved(self, noisy_setup, tiny_featurizer):
        train, val, _, cfg = noisy_setup
        ccfg = CleanConfig(folds=4, threshold=0.7, seed=5)
        cleaned, _, _, _ = clean_dataset(train, ccfg, cfg, tiny_featurizer, val)
        positions = {i.id: k for k, i in enumerate(train.instances)}
        order = [positions[i.id] for i in cleaned.instances]
        assert order == sorted(order)

    def test_never_inspects_gold(self, noisy_setup, tiny_featurizer):
        # the same selection must come out when gold labels do not exist
        train, val, _, cfg = noisy_setup
        ccfg = CleanConfig(folds=4, threshold=0.7, seed=5)
        _, with_gold, _, _ = clean_dataset(train, ccfg, cfg, tiny_featurizer, val)
        _, without_gold, _, _ = clean_dataset(strip_gold(train), ccfg, cfg,
                                              tiny_featurizer, strip_gold(val))
        assert with_gold.kept_ids == without_gold.kept_ids
        assert with_gold.removed_ids == without_gold.removed_ids
        assert without_gold.noise_before is None
        assert without_gold.noise_after is None
        assert with_gold.noise_before is not None

    def test_tuned_pass_matches_the_composition(self, noisy_setup,
                                                tiny_featurizer):
        # one untuned pass equals heldout_losses and tune_threshold, then a
        # fixed-threshold pass, then retrain_on_cleaned: the same cleaned
        # set, report bytes, tuning curve and model bits; a fixed pass
        # returns no curve and no model
        train, val, _, cfg = noisy_setup
        ccfg = CleanConfig(folds=3, tuning_quantiles=(0.5, 0.8), seed=2)
        cleaned, report, diagnostics, model = clean_dataset(
            train, ccfg, cfg, tiny_featurizer, val)

        data = Featurized.of(tiny_featurizer, train, val)
        losses, _ = heldout_losses(data, ccfg, cfg)
        t, curve, winner = tune_threshold(data, losses, ccfg, cfg)
        fixed, fixed_report, no_curve, no_model = clean_dataset(
            train, replace(ccfg, threshold=t), cfg, tiny_featurizer, val)
        retrained = retrain_on_cleaned(fixed, val, cfg, tiny_featurizer)
        assert no_curve is None and no_model is None
        assert cleaned == fixed
        assert report.to_json() == fixed_report.to_json()
        assert diagnostics == curve and report.threshold_used == t
        for other in (winner, retrained):
            assert model.n_heads == other.n_heads
            assert model.drop_rate == other.drop_rate
            for a, b in zip(model.arrays(), other.arrays(), strict=True):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("threshold, tunings", [(None, 1), (0.9, 0)])
    def test_each_step_runs_once(self, noisy_setup, tiny_featurizer,
                                 monkeypatch, threshold, tunings):
        # the pass runs its steps through the public names, once each; a
        # fixed threshold skips the tuning
        train, val, _, cfg = noisy_setup
        calls = []
        for name in ("heldout_losses", "tune_threshold"):
            def counted(*args, real=getattr(cleaning, name), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(cleaning, name, counted)
        ccfg = CleanConfig(folds=3, threshold=threshold,
                           tuning_quantiles=(0.5, 0.8), seed=2)
        clean_dataset(train, ccfg, cfg, tiny_featurizer, val)
        assert calls == ["heldout_losses"] + ["tune_threshold"] * tunings

    def test_report_json(self, noisy_setup, tiny_featurizer, tmp_path):
        train, val, _, cfg = noisy_setup
        ccfg = CleanConfig(folds=4, threshold=0.7, seed=5)
        _, report, _, _ = clean_dataset(train, ccfg, cfg, tiny_featurizer, val)
        path = tmp_path / "report.json"
        report.save(path)
        payload = json.loads(path.read_text())
        assert payload["threshold_used"] == 0.7
        assert set(payload) == {"kept_ids", "removed_ids", "per_instance_loss",
                                "threshold_used", "noise_before", "noise_after",
                                "fold_of"}
        assert len(payload["per_instance_loss"]) == len(train)


def tuned(train, val, ccfg, cfg, featurizer):
    """tune_threshold over the held-out losses it computes first."""
    data = Featurized.of(featurizer, train, val)
    losses, _ = heldout_losses(data, ccfg, cfg)
    return tune_threshold(data, losses, ccfg, cfg)


class TestTuneThreshold:
    def test_single_candidate_returned(self, noisy_setup, tiny_featurizer):
        train, val, _, cfg = noisy_setup
        ccfg = CleanConfig(folds=3, tuning_grid=(0.9,), seed=2)
        t, diagnostics, _ = tuned(train, val, ccfg, cfg, tiny_featurizer)
        assert t == 0.9
        assert len(diagnostics) == 1

    def test_brute_force_grid_oracle(self, noisy_setup, tiny_featurizer):
        # independently recompute each candidate: filter by held-out loss,
        # retrain, score on the noisy validation set, take the argmax
        train, val, _, cfg = noisy_setup
        grid = (0.3, 0.9, 2.5)
        ccfg = CleanConfig(folds=3, tuning_grid=grid, seed=2)
        t, diagnostics, _ = tuned(train, val, ccfg, cfg, tiny_featurizer)

        losses, _ = heldout_losses(Featurized.of(tiny_featurizer, train, val),
                                   ccfg, cfg)
        best_t, best_acc = None, -1.0
        for candidate in grid:
            kept = np.flatnonzero(losses < candidate)
            if kept.size == 0:
                continue
            params, _ = train_vanilla(train.select(kept), val, cfg,
                                      tiny_featurizer)
            acc = evaluate(params, val, tiny_featurizer)
            if acc > best_acc:
                best_t, best_acc = candidate, acc
        assert t == best_t
        by_t = {d.threshold: d for d in diagnostics}
        assert by_t[best_t].val_accuracy == pytest.approx(best_acc)

    def test_quantile_grid_default(self, noisy_setup, tiny_featurizer):
        train, val, _, cfg = noisy_setup
        ccfg = CleanConfig(folds=3, tuning_quantiles=(0.5, 0.8), seed=2)
        t, diagnostics, _ = tuned(train, val, ccfg, cfg, tiny_featurizer)
        assert len(diagnostics) == 2
        assert t in {d.threshold for d in diagnostics}

    def test_all_candidates_empty(self, noisy_setup, tiny_featurizer):
        train, val, _, cfg = noisy_setup
        ccfg = CleanConfig(folds=3, tuning_grid=(0.0,), seed=2)
        with pytest.raises(EmptyCleanedSetError):
            tuned(train, val, ccfg, cfg, tiny_featurizer)


class TestCleaningReport:
    def test_saved_bytes(self, tmp_path):
        report = CleaningReport(
            kept_ids=("i0",), removed_ids=("i1",),
            per_instance_loss={"i0": 0.25, "i1": 2.302585092994046},
            threshold_used=1.0, noise_before=0.5, noise_after=None,
            fold_of={"i0": 1, "i1": 0})
        report.save(tmp_path / "cleaning_report.json")
        assert (tmp_path / "cleaning_report.json").read_bytes() == b"""\
{
  "fold_of": {
    "i0": 1,
    "i1": 0
  },
  "kept_ids": [
    "i0"
  ],
  "noise_after": null,
  "noise_before": 0.5,
  "per_instance_loss": {
    "i0": 0.25,
    "i1": 2.302585092994046
  },
  "removed_ids": [
    "i1"
  ],
  "threshold_used": 1.0
}
"""


class TestRetrain:
    def test_clean_input_matches_baseline(self, tiny_featurizer, fast_config):
        corpus = generate_synthetic_corpus(3, 400, 20, 0.0, seed=7)
        train, val, test = split_dataset(corpus, SplitSpec(0.7, 0.15, 0.15,
                                                           seed=7))
        params = retrain_on_cleaned(train, val, fast_config, tiny_featurizer)
        assert evaluate(params, test, tiny_featurizer) >= 0.95

    def test_empty_rejected(self, noisy_setup, tiny_featurizer):
        train, val, _, cfg = noisy_setup
        empty = train.select([])
        with pytest.raises(ValidationError):
            retrain_on_cleaned(empty, val, cfg, tiny_featurizer)

    def test_no_test_set_returns_none(self, noisy_setup, tiny_featurizer):
        train, val, _, cfg = noisy_setup
        params = retrain_on_cleaned(train, val, cfg, tiny_featurizer)
        assert params.n_heads == 1
