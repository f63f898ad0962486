import json
import math
from dataclasses import replace

import numpy as np
import pytest

from noisylabels import (
    CetaConfig,
    ConsensusCollapseError,
    CoteachSchedule,
    Featurizer,
    TrainConfig,
    ValidationError,
    evaluate,
    generate_synthetic_corpus,
    inject_uniform_noise,
    init_params,
    split_dataset,
    total_variation,
    train_ceta,
    train_coteaching,
    train_vanilla,
)
from noisylabels import SplitSpec
from noisylabels.cli import main
from noisylabels.model import _encode, _mean_ce_and_grads, _row_losses, \
    featurize_dataset, featurize_texts, instance_losses, mean_ce_and_grads
from noisylabels.training import MEMBER_METHODS, EarlyStopState, Featurized, \
    _Batcher, _CSRRows, _take_rows, _train, ceta_batch_objective
from noisylabels.util import derive_rng
from tests.test_model import assert_matches_central_differences, \
    dense_encoder_grad


def params_equal(a, b):
    if not np.array_equal(a.encoder, b.encoder):
        return False
    return all(np.array_equal(h1.weights, h2.weights)
               and np.array_equal(h1.bias, h2.bias)
               for h1, h2 in zip(a.heads, b.heads))


class TestVanilla:
    def test_patience_one_stops_at_second_eval(self, small_splits,
                                               tiny_featurizer):
        train, val, _ = small_splits
        # learning rate so small the model never improves after the first eval
        cfg = TrainConfig(steps=500, learning_rate=1e-9, patience=1,
                          drop_rate=0.0, batch_size=16, eval_every=10, seed=0,
                          hidden_size=8)
        _, history = train_vanilla(train, val, cfg, tiny_featurizer)
        evals = [h for h in history if h.get("val_accuracy") is not None]
        assert len(evals) == 2
        assert history[-1]["step"] == 20

    def test_returned_params_reproduce_best_val_accuracy(self, small_splits,
                                                         tiny_featurizer,
                                                         fast_config):
        train, val, _ = small_splits
        params, history = train_vanilla(train, val, fast_config, tiny_featurizer)
        best = max(h["val_accuracy"] for h in history
                   if h.get("val_accuracy") is not None)
        again = evaluate(params, val, tiny_featurizer)
        assert abs(again - best) < 1e-12

    def test_never_exceeds_step_budget(self, small_splits, tiny_featurizer):
        train, val, _ = small_splits
        cfg = TrainConfig(steps=57, learning_rate=0.5, patience=50,
                          batch_size=16, eval_every=10, seed=1, hidden_size=16)
        _, history = train_vanilla(train, val, cfg, tiny_featurizer)
        assert history[-1]["step"] == 57
        # the ragged final step still gets an evaluation
        assert history[-1].get("val_accuracy") is not None

    def test_deterministic(self, small_splits, tiny_featurizer, fast_config):
        train, val, _ = small_splits
        p1, h1 = train_vanilla(train, val, fast_config, tiny_featurizer)
        p2, h2 = train_vanilla(train, val, fast_config, tiny_featurizer)
        assert params_equal(p1, p2)
        assert h1 == h2

    def test_label_set_mismatch_rejected(self, small_splits, tiny_featurizer,
                                         fast_config):
        train = small_splits[0]
        other = generate_synthetic_corpus(4, 40, 8, 0.0, seed=1)
        with pytest.raises(ValidationError, match="label sets"):
            train_vanilla(train, other, fast_config, tiny_featurizer)


class TestBatcher:
    @pytest.mark.parametrize("n, batch_size", [(37, 8), (37, 37), (37, 50), (1, 4)])
    def test_batches_equal_fancy_indexed_rows(self, n, batch_size,
                                              tiny_featurizer):
        # n % batch_size != 0 drops a ragged tail; batch_size > n shrinks to n
        rng = np.random.default_rng(n + batch_size)
        words = [f"w{i}" for i in range(60)]
        x = featurize_texts(tiny_featurizer, [
            " ".join(rng.choice(words, size=rng.integers(0, 9))) for _ in range(n)])
        y = rng.integers(0, 3, size=n)
        batcher = _Batcher(x, y, batch_size, derive_rng(5, "batches"))
        size = min(batch_size, n)
        assert batcher.steps_per_epoch == n // size
        # the batch order: each epoch's permutation cut into whole batches
        reference = derive_rng(5, "batches")
        for _ in range(3):
            perm = reference.permutation(n)
            for start in range(0, n - size + 1, size):
                batch, xb, yb = batcher.next()
                assert np.array_equal(batch, perm[start:start + size])
                expected = x[batch]
                for attr in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(xb, attr), getattr(expected, attr))
                assert xb.shape == expected.shape
                assert np.array_equal(yb, y[batch])


class TestTakeRows:
    @pytest.mark.parametrize("idx", [[0, 2, 3], [1], [], [0, 1, 2, 3, 4, 5],
                                     [5, 0, 2, 2]])
    def test_equals_scipy_row_take(self, idx, tiny_featurizer):
        # rows 1 and 4 are empty
        x = featurize_texts(tiny_featurizer, ["a b c", "", "b d", "e", "", "a e f g"])
        raw = _CSRRows(x.data, x.indices, x.indptr, x.shape)
        idx = np.array(idx, dtype=np.int64)
        taken, expected = _take_rows(raw, idx), x[idx]
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(taken, attr), getattr(expected, attr))
        assert taken.shape == expected.shape


class TestEarlyStopState:
    def test_snapshot_holds_the_effective_encoder(self, tiny_featurizer):
        # building the state copies the net, and every improvement writes
        # scale * encoder at scale 1.0 into that copy, leaving the model as
        # it was
        params = init_params(tiny_featurizer, n_labels=3, hidden_size=4, seed=0)
        params.encoder /= 0.7
        params.encoder_scale = 0.7
        state = EarlyStopState(params)
        for accuracy in (0.5, 0.6):
            stored = params.encoder.copy()
            assert state.update(accuracy, params)
            [snap] = state.best_snapshots
            assert snap.encoder_scale == 1.0
            assert np.array_equal(snap.encoder, stored * 0.7)
            assert params.encoder_scale == 0.7
            assert np.array_equal(params.encoder, stored)
            params.encoder += 1.0

    def test_snapshots_are_copies_taken_at_the_last_improvement(self,
                                                                tiny_featurizer):
        params = init_params(tiny_featurizer, n_labels=3, hidden_size=4, seed=0)
        state = EarlyStopState(params)
        [first] = state.best_snapshots
        assert state.update(0.5, params)
        for a in params.arrays():
            a += 1.0
        assert state.update(0.6, params)
        at_second = params.copy()
        for a in params.arrays():
            a += 1.0
        assert not state.update(0.55, params)
        [best] = state.best_snapshots
        assert best is first  # overwritten in place, not reallocated
        assert params_equal(best, at_second)
        for snap, live in zip(best.arrays(), params.arrays()):
            assert not np.shares_memory(snap, live)


@pytest.fixture(scope="module")
def noisy_splits():
    corpus = generate_synthetic_corpus(5, 1200, 20, 0.0, seed=31)
    train, val, test = split_dataset(corpus, SplitSpec(0.7, 0.15, 0.15, seed=31))
    return (inject_uniform_noise(train, 0.3, seed=5),
            inject_uniform_noise(val, 0.3, seed=6), test)


class TestCoteaching:

    def test_kept_size_exact_ceil(self, noisy_splits, tiny_featurizer):
        train, val, _ = noisy_splits
        cfg = TrainConfig(steps=60, learning_rate=0.5, patience=99,
                          batch_size=10, eval_every=20, seed=3, hidden_size=16)
        sched = CoteachSchedule(tau=0.4, ramp_steps=30)
        _, _, history = train_coteaching(train, val, cfg, sched,
                                         tiny_featurizer)
        for row in history:
            fr = sched.forget_rate(row["step"])
            expected = math.ceil((1 - fr) * len(row["batch_indices"]))
            assert len(row["kept_net1"]) == expected
            assert len(row["kept_net2"]) == expected
            assert set(row["kept_net1"]) <= set(row["batch_indices"])
            assert set(row["kept_net2"]) <= set(row["batch_indices"])
        # tau=0.4 after the ramp keeps exactly 6 of a batch of 10
        post = [h for h in history if h["step"] > 30]
        assert all(len(h["kept_net1"]) == 6 for h in post)

    def test_tau_zero_matches_vanilla_trajectories(self, noisy_splits,
                                                   tiny_featurizer):
        train, val, _ = noisy_splits
        cfg = TrainConfig(steps=80, learning_rate=0.5, patience=99,
                          drop_rate=0.1, batch_size=16, eval_every=20, seed=9,
                          hidden_size=16)
        sched = CoteachSchedule(tau=0.0, ramp_steps=10)
        p1, p2, hist = train_coteaching(train, val, cfg, sched, tiny_featurizer)

        v1, vh1 = train_vanilla(train, val, cfg, tiny_featurizer)
        # the loop seeds net i's init from the init seed (cfg.seed when
        # init_seed is unset) + i, and batches from cfg.seed
        cfg2 = replace(cfg, init_seed=cfg.seed + 1)
        v2, vh2 = train_vanilla(train, val, cfg2, tiny_featurizer)

        # step-for-step: identical batch losses and validation accuracies
        assert [h["train_batch_loss"] for h in hist] == \
            [h["train_batch_loss"] for h in vh1]
        assert [h["train_batch_loss_net2"] for h in hist] == \
            [h["train_batch_loss"] for h in vh2]
        assert [h.get("val_accuracy") for h in hist] == \
            [h.get("val_accuracy") for h in vh1]
        # network 1 shares vanilla's early-stop rule, so snapshots agree too
        assert params_equal(p1, v1)

    def test_kept_sets_cleaner_than_batches(self, noisy_splits,
                                            tiny_featurizer):
        train, val, _ = noisy_splits
        cfg = TrainConfig(steps=250, learning_rate=0.5, patience=99,
                          drop_rate=0.1, batch_size=32, eval_every=50, seed=2,
                          hidden_size=16)
        sched = CoteachSchedule(tau=0.3, ramp_steps=60)
        _, _, history = train_coteaching(train, val, cfg, sched,
                                         tiny_featurizer)
        noisy = train.gold() != train.observed()
        post = [h for h in history if h["step"] > 60]
        batch_frac = np.mean([noisy[h["batch_indices"]].mean() for h in post])
        for key in ("kept_net1", "kept_net2"):
            kept_frac = np.mean([noisy[h[key]].mean() for h in post])
            assert kept_frac < batch_frac

    def test_update_reuses_the_scoring_pass_bit_for_bit(self, noisy_splits,
                                                         tiny_featurizer):
        # the objective scores a batch once per net and updates each net on
        # the other's kept rows from that pass's pre-activations; a CSR row's
        # pre-activations do not depend on the other rows, so both must equal
        # the fresh passes of instance_losses and mean_ce_and_grads
        train, _, _ = noisy_splits
        x = featurize_dataset(tiny_featurizer, train)
        y = train.observed()
        net = init_params(tiny_featurizer, len(train.label_set), 16,
                          drop_rate=0.3, seed=5)
        net.encoder /= 0.7
        net.encoder_scale = 0.7  # as after decayed steps
        batch = np.arange(7, 39)
        xb = _take_rows(x, batch)
        pre = _encode(net, xb)
        assert np.array_equal(_row_losses(net, pre, y[batch]),
                              instance_losses(net, xb, y[batch]))
        kept = np.sort(np.random.default_rng(1).choice(32, 20, replace=False))
        reused = _mean_ce_and_grads(net, _take_rows(xb, kept), pre[kept],
                                    y[batch][kept], np.random.default_rng(4), True)
        fresh = mean_ce_and_grads(net, _take_rows(xb, kept), y[batch][kept],
                                  scale_rng=np.random.default_rng(4), train_mode=True)
        assert reused[0] == fresh[0]
        assert np.array_equal(reused[1].d_pre, fresh[1].d_pre)
        for a, b in zip(reused[1].heads[0], fresh[1].heads[0]):
            assert np.array_equal(a, b)

    def test_degenerate_keep_none_rejected(self, noisy_splits, tiny_featurizer):
        train, val, _ = noisy_splits
        cfg = TrainConfig(steps=40, learning_rate=0.5, patience=99,
                          batch_size=8, eval_every=10, seed=0, hidden_size=8)
        with pytest.raises(ValidationError, match="tau < 1"):
            train_coteaching(train, val, cfg, CoteachSchedule(tau=1.0,
                                                              ramp_steps=0),
                             tiny_featurizer)

    def test_forget_rate_schedule(self):
        sched = CoteachSchedule(tau=0.4, ramp_steps=100)
        assert sched.forget_rate(0) == 0.0
        assert sched.forget_rate(50) == pytest.approx(0.2)
        assert sched.forget_rate(100) == pytest.approx(0.4)
        assert sched.forget_rate(10_000) == pytest.approx(0.4)
        assert CoteachSchedule(tau=0.3, ramp_steps=0).forget_rate(1) == 0.3


class TestTotalVariation:
    def test_identical_zero(self):
        p = np.array([0.2, 0.5, 0.3])
        assert total_variation(p, p) == 0.0

    def test_disjoint_support_one(self):
        assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_properties_random_pairs(self):
        # symmetry and [0, 1] bounds over 1000 random distribution pairs
        rng = np.random.default_rng(44)
        for _ in range(1000):
            k = int(rng.integers(2, 12))
            p = rng.dirichlet(np.ones(k))
            q = rng.dirichlet(np.ones(k))
            d = total_variation(p, q)
            assert abs(d - total_variation(q, p)) < 1e-12
            assert -1e-12 <= d <= 1.0 + 1e-12
            assert total_variation(p, p) <= 1e-12


class TestCeta:
    def test_identical_heads_full_consensus_zero_tv(self, small_splits,
                                                    tiny_featurizer):
        train, _, _ = small_splits
        params = init_params(tiny_featurizer, n_labels=3, hidden_size=16,
                             n_heads=2, seed=4)
        params.heads[1] = params.heads[0].copy()
        x = featurize_dataset(tiny_featurizer, train)[:32]
        y = train.observed()[:32]
        _, _, consensus, tv_mean = ceta_batch_objective(
            params, x, y, CetaConfig(), train_mode=False)
        assert consensus.all()
        assert tv_mean == 0.0

    @staticmethod
    def probe_gradients(texts, drop_rate, train_mode, seed):
        feat = Featurizer(hash_dim=64, hash_seed=0)
        params = init_params(feat, n_labels=3, hidden_size=8, n_heads=2,
                             drop_rate=drop_rate, seed=3)
        x = featurize_texts(feat, texts)
        y = np.array([0, 1, 2, 1])
        ceta = CetaConfig(lambda_w=0.3)

        def objective():
            # a fresh generator per call fixes both heads' dropout masks
            return ceta_batch_objective(params, x, y, ceta, train_mode=train_mode,
                                        scale_rng=np.random.default_rng(7))

        _, grads, consensus, _ = objective()
        assert 0 < consensus.sum() < len(y)  # both loss terms carry gradient

        def loss():
            value, _, probe_consensus, _ = objective()
            # the consensus set is piecewise constant; a probe that moved it
            # would measure a jump, not a derivative
            assert np.array_equal(probe_consensus, consensus)
            return value

        arrays = [(params.encoder, dense_encoder_grad(grads))]
        for h in (0, 1):
            arrays.append((params.heads[h].weights, grads.heads[h][0]))
            arrays.append((params.heads[h].bias, grads.heads[h][1]))
        assert_matches_central_differences(loss, arrays, 60,
                                           np.random.default_rng(seed))

    def test_gradient_matches_central_differences(self):
        # the consensus objective (cross-entropy + total-variation term)
        # against the finite-difference oracle
        self.probe_gradients(["aa bb", "cc dd ee", "ff", "gg hh"],
                             drop_rate=0.0, train_mode=False, seed=6)

    def test_gradient_through_per_head_dropout(self):
        # every text keeps some hidden units under the mask, so no head's
        # logits sit on an exact argmax tie
        self.probe_gradients(["aa bb cc", "cc dd ee", "ff gg hh", "gg hh ii jj"],
                             drop_rate=0.5, train_mode=True, seed=7)

    def test_heads_draw_separate_dropout_masks(self, small_splits,
                                               tiny_featurizer):
        # identical heads only disagree if their masks differ
        train, _, _ = small_splits
        params = init_params(tiny_featurizer, n_labels=3, hidden_size=16,
                             n_heads=2, drop_rate=0.5, seed=4)
        params.heads[1] = params.heads[0].copy()
        x = featurize_dataset(tiny_featurizer, train)[:32]
        y = train.observed()[:32]
        _, _, _, tv_mean = ceta_batch_objective(
            params, x, y, CetaConfig(), train_mode=True,
            scale_rng=np.random.default_rng(0))
        assert tv_mean > 0.0

    def test_training_runs_and_early_stops(self, small_splits, tiny_featurizer,
                                           fast_config):
        train, val, test = small_splits
        params, history = train_ceta(train, val, fast_config, CetaConfig(),
                                     tiny_featurizer)
        assert params.n_heads == 2
        assert evaluate(params, test, tiny_featurizer) >= 0.95
        assert all(0.0 <= h["consensus_fraction"] <= 1.0 for h in history)

    def test_collapse_raised_after_one_epoch_without_consensus(
            self, small_splits, tiny_featurizer, fast_config, no_consensus):
        train, val, _ = small_splits
        steps_per_epoch = len(train) // fast_config.batch_size
        assert steps_per_epoch < min(fast_config.steps, fast_config.eval_every)
        with pytest.raises(ConsensusCollapseError,
                           match=f"no consensus for {steps_per_epoch} consecutive"):
            train_ceta(train, val, fast_config, CetaConfig(), tiny_featurizer)
        assert no_consensus == [fast_config.batch_size] * steps_per_epoch

    def test_consensus_rules_compared(self, small_splits, tiny_featurizer,
                                      fast_config):
        # both rules run; no claim about which is stronger (at this scale the
        # with-label rule tends to collapse onto a single class because only
        # already-agreeing classes ever receive gradient)
        train, val, test = small_splits
        accs = {}
        for rule in ("heads_agree", "heads_agree_with_label"):
            params, history = train_ceta(train, val, fast_config,
                                         CetaConfig(consensus_rule=rule),
                                         tiny_featurizer)
            assert all(0.0 <= h["consensus_fraction"] <= 1.0 for h in history)
            accs[rule] = evaluate(params, test, tiny_featurizer)
        assert accs["heads_agree"] >= 0.95
        assert 0.0 <= accs["heads_agree_with_label"] <= 1.0

    def test_config_validation(self, tmp_path, capsys):
        with pytest.raises(ValidationError):
            CetaConfig(consensus_rule="bogus")
        with pytest.raises(ValidationError):
            CetaConfig(lambda_w=-0.5)
        # the ground metric is always the discrete one, so it is no key
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "ceta",
                                   "dataset": {"preset": "separable"},
                                   "ceta": {"ground_metric": "euclidean"}}),
                       encoding="utf-8")
        assert main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestTrainerParity:
    def test_clean_data_three_trainers_within_two_points(self, small_splits,
                                                         tiny_featurizer,
                                                         fast_config):
        # with no noise the three regimes should agree (5-seed means)
        train, val, test = small_splits
        means = {}
        for name in ("vanilla", "coteaching", "ceta"):
            accs = []
            for seed in range(5):
                cfg = replace(fast_config, seed=seed)
                if name == "vanilla":
                    p, _ = train_vanilla(train, val, cfg, tiny_featurizer)
                    accs.append(evaluate(p, test, tiny_featurizer))
                elif name == "coteaching":
                    p, _, _ = train_coteaching(
                        train, val, cfg, CoteachSchedule(tau=0.1,
                                                         ramp_steps=40),
                        tiny_featurizer)
                    accs.append(evaluate(p, test, tiny_featurizer))
                else:
                    p, _ = train_ceta(train, val, cfg, CetaConfig(),
                                      tiny_featurizer)
                    accs.append(evaluate(p, test, tiny_featurizer))
            means[name] = float(np.mean(accs))
        spread = max(means.values()) - min(means.values())
        assert spread <= 0.02, means


class TestReturnedScale:
    def test_every_trainer_returns_scale_one(self, small_splits, tiny_featurizer,
                                             fast_config):
        # a decay of 0.995 a step moves the live scale off 1.0 within the run
        train, val, _ = small_splits
        cfg = replace(fast_config, weight_decay=1e-2)
        sched = CoteachSchedule(tau=0.2, ramp_steps=40)
        models = [train_vanilla(train, val, cfg, tiny_featurizer)[0],
                  *train_coteaching(train, val, cfg, sched, tiny_featurizer)[:2],
                  train_ceta(train, val, cfg, CetaConfig(), tiny_featurizer)[0]]
        data = Featurized.of(tiny_featurizer, train, val)
        models += [net for m in MEMBER_METHODS
                   for net in _train(m, data, cfg, sched, CetaConfig())[0]]
        assert [m.encoder_scale for m in models] == [1.0] * len(models)


class TestTrainMethod:
    @pytest.mark.parametrize("method", MEMBER_METHODS)
    def test_matches_public_trainers_first_model(self, method, small_splits,
                                                 tiny_featurizer, fast_config):
        train, val, _ = small_splits
        sched = CoteachSchedule(tau=0.2, ramp_steps=40)
        ceta = CetaConfig(lambda_w=0.2)
        public = {
            "vanilla": lambda: train_vanilla(train, val, fast_config,
                                             tiny_featurizer),
            "coteaching": lambda: train_coteaching(train, val, fast_config, sched,
                                                   tiny_featurizer),
            "ceta": lambda: train_ceta(train, val, fast_config, ceta,
                                       tiny_featurizer),
        }[method]()
        nets, history = _train(method, Featurized.of(tiny_featurizer, train, val),
                               fast_config, sched, ceta)
        model, first = nets[0], public[0]
        assert len(model.arrays()) == len(first.arrays())
        assert all(np.array_equal(a, b)
                   for a, b in zip(model.arrays(), first.arrays()))
        # every net, network 1 first, and the history
        assert len(nets) == len(public) - 1
        assert all(params_equal(a, b) for a, b in zip(nets, public[:-1]))
        assert history == public[-1]


class TestHistory:
    def test_rows(self, small_splits, tiny_featurizer, fast_config):
        train, val, _ = small_splits
        _, history = train_vanilla(train, val, fast_config, tiny_featurizer)
        assert [row["step"] for row in history] == \
            list(range(1, len(history) + 1))
        assert all(isinstance(row["train_batch_loss"], float) for row in history)
        # only evaluation steps record a validation accuracy
        assert "val_accuracy" not in history[0]
        assert "val_accuracy" in history[fast_config.eval_every - 1]

    def test_method_specific_fields(self, noisy_splits, tiny_featurizer):
        train, val, _ = noisy_splits
        cfg = TrainConfig(steps=30, learning_rate=0.5, patience=99,
                          batch_size=16, eval_every=10, seed=0, hidden_size=8)
        _, _, hist = train_coteaching(train, val, cfg,
                                      CoteachSchedule(tau=0.2, ramp_steps=10),
                                      tiny_featurizer)
        assert hist[0].get("kept_fraction") is not None
        assert hist[0].get("consensus_fraction") is None
        _, hist = train_ceta(train, val, cfg, CetaConfig(), tiny_featurizer)
        assert hist[0].get("kept_fraction") is None
        assert hist[0].get("consensus_fraction") is not None
