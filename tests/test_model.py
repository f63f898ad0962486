import hashlib
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from noisylabels import (
    Featurizer,
    TrainConfig,
    ValidationError,
    featurize_texts,
    init_params,
    instance_losses,
    load_model,
    save_model,
)
from noisylabels import DivergenceError, model
from noisylabels.ensembles import _predict_features
from noisylabels.model import Grads, ModelParams, _encode, _forward, \
    _softmax, apply_grads, backward_from_logit_grads, evaluate_features, \
    mean_ce_and_grads, predict_probs
from noisylabels.util import stable_hash


def numeric_gradient(fn, array, index, h=1e-5):
    """Central finite difference of fn wrt one coordinate of array."""
    orig = array[index]
    array[index] = orig + h
    up = fn()
    array[index] = orig - h
    down = fn()
    array[index] = orig
    return (up - down) / (2 * h)


def dense_encoder_grad(params, grads):
    """grads.encoder scattered at grads.rows into a zero array shaped like
    params.encoder; rows outside the batch have gradient 0."""
    dense = np.zeros_like(params.encoder)
    dense[grads.rows] = grads.encoder
    return dense


def assert_matches_central_differences(objective, arrays, probes, rng):
    """Probe random coordinates of (parameter, analytic gradient) pairs and
    require 1e-4 relative agreement with the central difference."""
    for _ in range(probes):
        arr, analytic = arrays[rng.integers(0, len(arrays))]
        index = tuple(rng.integers(0, s) for s in arr.shape)
        numeric = numeric_gradient(objective, arr, index)
        a = analytic[index]
        denom = max(abs(a), abs(numeric), 1e-8)
        assert abs(a - numeric) / denom < 1e-4


def train_step(params, x, y, lr_effective, weight_decay=0.0, seed=0):
    """One train-mode SGD step of head 0, built from the public primitives."""
    _, grads = mean_ce_and_grads(params, x, y, train_mode=True,
                                 scale_rng=np.random.default_rng(seed))
    apply_grads(params, grads, lr_effective, weight_decay)


def reference_featurize(featurizer, texts):
    """The per-text featurizer: keyed blake2b for every n-gram occurrence,
    then np.unique and np.linalg.norm row by row."""
    data, indices, indptr = [], [], [0]
    for text in texts:
        tokens = text.lower().split()
        idx = [stable_hash(f"{order}:" + " ".join(tokens[i:i + order]),
                           featurizer.hash_seed) % featurizer.hash_dim
               for order in featurizer.ngram_orders
               for i in range(len(tokens) - order + 1)]
        if idx:
            uniq, counts = np.unique(np.asarray(idx, dtype=np.int64),
                                     return_counts=True)
            indices.extend(uniq.tolist())
            data.extend((counts / np.linalg.norm(counts)).tolist())
        indptr.append(len(indices))
    return sparse.csr_array((np.asarray(data, dtype=np.float64),
                             np.asarray(indices, dtype=np.int64),
                             np.asarray(indptr, dtype=np.int64)),
                            shape=(len(texts), featurizer.hash_dim))


def assert_matches_reference(featurizer, texts):
    assert_same_csr(featurize_texts(featurizer, texts),
                    reference_featurize(featurizer, texts))


def assert_same_csr(actual, expected):
    assert actual.shape == expected.shape
    for attr in ("data", "indices", "indptr"):
        a, e = getattr(actual, attr), getattr(expected, attr)
        assert a.dtype == e.dtype and np.array_equal(a, e), attr


# few distinct tokens, so texts repeat n-grams; mixed case, and whitespace
# of several kinds, so texts can be empty or whitespace-only
TOKENS = st.sampled_from(["a", "A", "b", "ab", "aB", "ß", "SS", "İ", "ǅ", "x1"])
SPACES = st.sampled_from([" ", "  ", "\t", "\n", "\u3000", "\x85"])
TEXTS = st.lists(TOKENS | SPACES, max_size=12).map("".join) | st.text(max_size=30)
FEATURIZERS = st.builds(
    Featurizer,
    hash_dim=st.integers(1, 16).map(lambda k: 2**k),
    ngram_orders=st.sets(st.sampled_from([1, 2, 3]), min_size=1).map(tuple),
    hash_seed=st.sampled_from([0, 1, -7, 2**40]),
)


class TestFeaturizer:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(FEATURIZERS, st.lists(TEXTS, max_size=8))
    def test_matches_per_text_reference(self, featurizer, texts):
        assert_matches_reference(featurizer, texts)

    def test_memo_keyed_by_seed_not_dim(self):
        texts = ["alpha beta gamma", "Beta alpha", "gamma gamma delta", ""]
        for seed in (0, 1, 0, 5, 1, 0):
            assert_matches_reference(Featurizer(2**10, (1, 2), seed), texts)
        for dim in (2**10, 2**4, 2**16, 2**4):
            assert_matches_reference(Featurizer(dim, (1, 2, 3), 3), texts)
        assert list(model._gram_hashes) == [3]  # one seed's table at a time

    def test_memo_never_exceeds_cap(self, monkeypatch):
        monkeypatch.setattr(model, "_GRAM_HASH_CAP", 8)
        featurizer = Featurizer(2**8, (1, 2), 11)
        texts = [f"w{i} w{i + 1} w{i * 7} w{i}" for i in range(30)]
        assert_matches_reference(featurizer, texts)
        for i in range(len(texts)):
            assert_matches_reference(featurizer, texts[i:i + 2])
            assert 0 < len(model._gram_hashes[11]) <= 8

    def test_concurrent_calls_with_a_small_cap(self, monkeypatch):
        # four threads on two cores, two hash seeds, and a cap far below the
        # distinct grams: tables are cleared and replaced under every call
        monkeypatch.setattr(model, "_GRAM_HASH_CAP", 16)
        texts = [f"w{i % 13} w{i % 7} W{i % 5} w{i}" for i in range(300)]
        featurizers = [Featurizer(2**8, (1, 2), k % 2) for k in range(4)]
        results = [None] * 4

        def work(k):
            results[k] = featurize_texts(featurizers[k], texts)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for featurizer, result in zip(featurizers, results):
            assert_same_csr(result, reference_featurize(featurizer, texts))

    def test_lone_surrogate_names_its_text(self):
        with pytest.raises(ValidationError, match="text 1 "):
            featurize_texts(Featurizer(), ["ok", "x \ud800"])

    def test_empty_text_zero_vector(self, tiny_featurizer):
        assert featurize_texts(tiny_featurizer, [""]).nnz == 0

    def test_deterministic(self, tiny_featurizer):
        a = featurize_texts(tiny_featurizer, ["a b"])
        b = featurize_texts(tiny_featurizer, ["a b"])
        assert (a != b).nnz == 0

    def test_two_tokens_three_features(self, tiny_featurizer):
        # n-grams of "a b" with orders {1,2}: "a", "b", "a b"
        assert featurize_texts(tiny_featurizer, ["a b"]).nnz == 3

    def test_rows_l2_normalized(self, tiny_featurizer):
        x = featurize_texts(tiny_featurizer, ["a b c d", "a a a", "x"])
        norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_repeated_ngrams_accumulate(self, tiny_featurizer):
        single = featurize_texts(tiny_featurizer, ["a b"])
        double = featurize_texts(tiny_featurizer, ["a a"])
        assert double.nnz == 2  # "a" twice plus bigram "a a"
        assert single.nnz == 3

    def test_case_folding(self, tiny_featurizer):
        a = featurize_texts(tiny_featurizer, ["Hello World"])
        b = featurize_texts(tiny_featurizer, ["hello world"])
        assert (a != b).nnz == 0

    def test_hash_dim_power_of_two(self):
        with pytest.raises(ValidationError):
            Featurizer(hash_dim=1000)

    def test_subset_equals_row_slice(self, tiny_featurizer):
        # trainers featurize a split once and slice rows for every subset,
        # so the slice must match featurizing the subset, array for array
        texts = ["alpha beta beta", "", "Gamma delta alpha", "epsilon",
                 "zeta eta theta iota", "alpha"]
        full = featurize_texts(tiny_featurizer, texts)
        for idx in ([0, 2, 5], [4, 1, 3], [5], [1]):
            sliced = full[np.array(idx)]
            direct = featurize_texts(tiny_featurizer, [texts[i] for i in idx])
            assert sliced.shape == direct.shape
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(sliced, attr),
                                      getattr(direct, attr)), attr

    @pytest.mark.parametrize("seed", [-2**63, -1, 0, 2**63 - 1])
    def test_stable_hash_key_is_the_signed_seed(self, seed):
        key = seed.to_bytes(8, "little", signed=True)
        digest = hashlib.blake2b(b"gram", digest_size=8, key=key).digest()
        assert stable_hash("gram", seed) == int.from_bytes(digest, "little")
        assert stable_hash("gram", seed + 2**64) == stable_hash("gram", seed)

    def test_hash_seed_changes_indices(self):
        text = ["alpha beta gamma"]
        a = featurize_texts(Featurizer(hash_dim=2**12, hash_seed=0), text)
        b = featurize_texts(Featurizer(hash_dim=2**12, hash_seed=1), text)
        assert set(a.indices) != set(b.indices)


class TestForward:
    def setup_method(self):
        self.feat = Featurizer(hash_dim=256, hash_seed=0)

    def test_zero_weights_uniform(self):
        params = init_params(self.feat, n_labels=4, hidden_size=8, seed=0)
        params.encoder[:] = 0.0
        params.heads[0].weights[:] = 0.0
        x = featurize_texts(self.feat, ["some text here"])
        probs = predict_probs(params, x)
        assert np.allclose(probs, 0.25, atol=1e-12)

    def test_eval_mode_deterministic(self):
        params = init_params(self.feat, n_labels=3, hidden_size=8,
                             drop_rate=0.5, seed=1)
        x = featurize_texts(self.feat, ["deterministic output please"])
        assert np.array_equal(predict_probs(params, x), predict_probs(params, x))

    def test_dropout_reproducible_with_seeded_rng(self):
        params = init_params(self.feat, n_labels=3, hidden_size=16,
                             drop_rate=0.5, seed=1)
        x = featurize_texts(self.feat, ["one two", "three four"])
        y = np.array([0, 2])

        def train_loss(seed):
            loss, _ = mean_ce_and_grads(params, x, y, train_mode=True,
                                        scale_rng=np.random.default_rng(seed))
            return loss

        assert train_loss(9) == train_loss(9)
        assert train_loss(9) != train_loss(10)

    def test_train_mode_dropout_needs_rng(self):
        params = init_params(self.feat, n_labels=3, hidden_size=4,
                             drop_rate=0.5, seed=1)
        x = featurize_texts(self.feat, ["one two"])
        with pytest.raises(ValidationError, match="rng"):
            mean_ce_and_grads(params, x, np.array([0]), train_mode=True)

    def test_prob_sums_property(self):
        # 1000 random parameter draws all produce normalized outputs
        rng = np.random.default_rng(12)
        x = featurize_texts(self.feat, ["aa bb cc", "dd", "ee ff"])
        for trial in range(1000):
            params = init_params(self.feat, n_labels=int(rng.integers(2, 9)),
                                 hidden_size=4, seed=int(rng.integers(1 << 30)))
            params.encoder *= rng.uniform(0.1, 30)
            probs = predict_probs(params, x)
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
            assert (probs >= 0).all()


class TestLoss:
    def setup_method(self):
        self.feat = Featurizer(hash_dim=256, hash_seed=0)

    def test_uniform_probs_log_k(self):
        params = init_params(self.feat, n_labels=5, hidden_size=8, seed=0)
        params.encoder[:] = 0.0
        x = featurize_texts(self.feat, ["whatever"])
        assert instance_losses(params, x, np.array([3]))[0] == \
            pytest.approx(np.log(5), abs=1e-12)

    def test_confident_correct_loss_zero(self):
        params = init_params(self.feat, n_labels=2, hidden_size=4, seed=0)
        params.encoder[:] = 0.0
        params.heads[0].weights[:] = 0.0
        params.heads[0].bias[:] = np.array([60.0, -60.0])
        x = featurize_texts(self.feat, ["anything"])
        assert instance_losses(params, x, np.array([0]))[0] == \
            pytest.approx(0.0, abs=1e-12)

    def test_loss_nonnegative_property(self):
        rng = np.random.default_rng(3)
        x = featurize_texts(self.feat, ["a b", "c d e", "f"])
        for _ in range(200):
            params = init_params(self.feat, n_labels=4, hidden_size=6,
                                 seed=int(rng.integers(1 << 30)))
            params.encoder *= rng.uniform(0.1, 20)
            losses = instance_losses(params, x, rng.integers(0, 4, size=3))
            assert (losses >= 0).all()


class TestGradients:
    def test_matches_central_differences(self):
        # miniature model: hash_dim 64, hidden 8, 3 classes; 100 probes
        feat = Featurizer(hash_dim=64, hash_seed=0)
        params = init_params(feat, n_labels=3, hidden_size=8, seed=5)
        rng = np.random.default_rng(17)
        texts = ["aa bb cc dd", "ee ff gg", "hh ii", "jj kk ll mm"]
        x = featurize_texts(feat, texts)
        y = np.array([0, 2, 1, 2])

        def objective():
            loss, _ = mean_ce_and_grads(params, x, y)
            return loss

        _, grads = mean_ce_and_grads(params, x, y)
        arrays = [(params.encoder, dense_encoder_grad(params, grads)),
                  (params.heads[0].weights, grads.heads[0][0]),
                  (params.heads[0].bias, grads.heads[0][1])]
        assert_matches_central_differences(objective, arrays, 100, rng)
        # rows no text touches leave the loss bit-identical
        for row in np.setdiff1d(np.arange(feat.hash_dim), grads.rows)[:8]:
            assert numeric_gradient(objective, params.encoder, (row, 3)) == 0.0

    def test_matches_central_differences_through_dropout(self):
        # train mode with a fixed dropout mask: scale_rng is re-seeded on
        # every call, so each objective evaluation sees the same mask
        feat = Featurizer(hash_dim=64, hash_seed=0)
        params = init_params(feat, n_labels=3, hidden_size=8, drop_rate=0.5,
                             seed=5)
        x = featurize_texts(feat, ["aa bb cc dd", "ee ff gg", "hh ii",
                                   "jj kk ll mm"])
        y = np.array([0, 2, 1, 2])

        def train_mode(params):
            return mean_ce_and_grads(params, x, y, train_mode=True,
                                     scale_rng=np.random.default_rng(23))

        loss, grads = train_mode(params)
        eval_loss, _ = mean_ce_and_grads(params, x, y)
        assert loss != eval_loss  # the mask is in effect
        arrays = [(params.encoder, dense_encoder_grad(params, grads)),
                  (params.heads[0].weights, grads.heads[0][0]),
                  (params.heads[0].bias, grads.heads[0][1])]
        assert_matches_central_differences(lambda: train_mode(params)[0], arrays,
                                           100, np.random.default_rng(29))

    def test_loss_decreases_on_separable_batch(self):
        feat = Featurizer(hash_dim=256, hash_seed=0)
        params = init_params(feat, n_labels=2, hidden_size=8, seed=2)
        x = featurize_texts(feat, ["left words", "right tokens"] * 4)
        y = np.array([0, 1] * 4)
        first, _ = mean_ce_and_grads(params, x, y)
        for _ in range(200):
            train_step(params, x, y, lr_effective=0.5)
        last, _ = mean_ce_and_grads(params, x, y)
        assert last < first

    def test_zero_lr_no_change(self):
        feat = Featurizer(hash_dim=128, hash_seed=0)
        params = init_params(feat, n_labels=3, hidden_size=4, seed=0)
        before = params.copy()
        x = featurize_texts(feat, ["a b", "c d"])
        train_step(params, x, np.array([0, 1]), lr_effective=0.0)
        assert np.array_equal(params.encoder, before.encoder)
        assert np.array_equal(params.heads[0].weights, before.heads[0].weights)

    def test_row_sparse_step_is_bit_identical_to_dense(self):
        # texts share n-grams, so feature rows take contributions from several
        # batch rows; the empty text touches no row at all
        feat = Featurizer(hash_dim=256, hash_seed=0)
        params = init_params(feat, n_labels=3, hidden_size=8, seed=9)
        x = featurize_texts(feat, ["red fox jumps", "red fox sleeps", "",
                                   "fox jumps high", "red red red"])
        y = np.array([0, 1, 2, 1, 0])
        _, grads = mean_ce_and_grads(params, x, y)
        assert grads.encoder.shape == (len(np.unique(x.indices)), 8)

        # the dense reference: d_pre as the backward pass forms it, then the
        # full hash_dim x hidden gradient
        pre, _, [logp] = _forward(params, x, 1)
        g = np.exp(logp)
        g[np.arange(5), y] -= 1.0
        d_hidden = np.zeros_like(pre)
        d_hidden += (g / 5) @ params.heads[0].weights.T
        dense = x.T @ (d_hidden * (pre > 0.0))
        assert np.array_equal(dense_encoder_grad(params, grads), dense)

        lr, weight_decay = 0.5, 1e-2
        reference = params.copy()
        reference.encoder -= lr * dense
        reference.encoder *= 1.0 - lr * weight_decay
        apply_grads(params, grads, lr, weight_decay)
        assert np.array_equal(params.encoder, reference.encoder)

    @pytest.mark.parametrize("texts", [
        ["red fox jumps", "red fox sleeps", "", "fox jumps high", "red red red"],
        ["a single row"],
        ["shared a", "shared b c", "shared", "d shared e"],
        ["", ""],
        [" ".join(f"w{i * j % 23}" for j in range(1 + i % 7)) for i in range(32)],
    ])
    def test_gradient_block_matches_unique_reference(self, texts):
        # hash_dim 64 makes different n-grams collide in one feature row
        feat = Featurizer(hash_dim=64, hash_seed=0)
        params = init_params(feat, n_labels=3, hidden_size=8, n_heads=2, seed=4)
        x = featurize_texts(feat, texts)
        pre, _ = _encode(params, x)
        g = np.random.default_rng(len(texts)).normal(size=(len(texts), 3))
        scale = np.random.default_rng(1).random(pre.shape) < 0.8
        grads = backward_from_logit_grads(params, x, pre, [None, scale * 1.25],
                                          {0: g, 1: -g})

        # the reference: x restricted to np.unique's distinct columns, then
        # transposed, times d_pre as the backward pass forms it
        d_hidden = np.zeros_like(pre)
        d_hidden += g @ params.heads[0].weights.T
        d_hidden += (-g @ params.heads[1].weights.T) * (scale * 1.25)
        d_pre = d_hidden * (pre > 0.0)
        rows, inverse = np.unique(x.indices, return_inverse=True)
        xr = sparse.csr_array((x.data, inverse, x.indptr),
                              shape=(x.shape[0], len(rows)))
        assert np.array_equal(grads.rows, rows)
        assert np.array_equal(grads.encoder, xr.T @ d_pre)
        assert grads.encoder.shape == (len(rows), 8)

    def test_weight_decay_shrinks_weights_monotonically(self):
        # empty texts give zero feature vectors, hence zero weight gradients;
        # only the decay term acts on the weight matrices
        feat = Featurizer(hash_dim=128, hash_seed=0)
        params = init_params(feat, n_labels=3, hidden_size=4, seed=1)
        x = featurize_texts(feat, ["", ""])
        norms = [np.linalg.norm(params.encoder)]
        head_norms = [np.linalg.norm(params.heads[0].weights)]
        for _ in range(10):
            train_step(params, x, np.array([0, 1]), lr_effective=0.1,
                     weight_decay=0.5)
            norms.append(np.linalg.norm(params.encoder))
            head_norms.append(np.linalg.norm(params.heads[0].weights))
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert all(b < a for a, b in zip(head_norms, head_norms[1:]))


class TestApplyGrads:
    @staticmethod
    def setup_params():
        feat = Featurizer(hash_dim=64, hash_seed=0)
        params = init_params(feat, n_labels=3, hidden_size=4, seed=2)
        grads = Grads(np.arange(feat.hash_dim), np.ones_like(params.encoder),
                      {0: (np.ones_like(params.heads[0].weights),
                           np.ones_like(params.heads[0].bias))})
        return params, grads

    def test_non_finite_head_gradient_changes_nothing(self):
        params, grads = self.setup_params()
        before = params.copy()
        grads.heads[0][0][1, 2] = np.nan
        with pytest.raises(DivergenceError):
            apply_grads(params, grads, 0.1, 1e-4)
        assert np.array_equal(params.encoder, before.encoder)
        assert np.array_equal(params.heads[0].weights, before.heads[0].weights)
        assert np.array_equal(params.heads[0].bias, before.heads[0].bias)

    def test_finite_gradients_whose_sum_overflows_apply(self):
        params, grads = self.setup_params()
        grads.encoder[:] = 1e308  # finite everywhere; the sum is inf
        with np.errstate(over="ignore"):
            assert not np.isfinite(grads.encoder.sum())
        apply_grads(params, grads, 1e-300, 0.0)
        assert np.isfinite(params.encoder).all()


class TestEvaluate:
    def test_accuracy_recount_oracle(self):
        feat = Featurizer(hash_dim=256, hash_seed=0)
        params = init_params(feat, n_labels=3, hidden_size=8, seed=4)
        rng = np.random.default_rng(8)
        texts = [f"tok{rng.integers(0, 30)} tok{rng.integers(0, 30)}"
                 for _ in range(50)]
        y = rng.integers(0, 3, size=50)
        x = featurize_texts(feat, texts)
        recount = np.mean([int(np.argmax(p)) == yy
                           for p, yy in zip(predict_probs(params, x), y)])
        assert evaluate_features(params, x, y) == recount

    def test_argmax_tie_lowest_index(self):
        feat = Featurizer(hash_dim=64, hash_seed=0)
        params = init_params(feat, n_labels=3, hidden_size=4, seed=0)
        params.encoder[:] = 0.0
        params.heads[0].weights[:] = 0.0
        x = featurize_texts(feat, ["tie case"])
        # uniform probs, tie resolves to label 0
        assert evaluate_features(params, x, np.array([0])) == 1.0

    def test_one_head_is_that_heads_softmax(self):
        feat = Featurizer(hash_dim=64, hash_seed=0)
        params = init_params(feat, n_labels=3, hidden_size=4, seed=0)
        x = featurize_texts(feat, ["abc def", "ghi", "abc jkl mno"])
        hidden = np.maximum(x @ params.encoder, 0.0)
        head = params.heads[0]
        assert np.array_equal(predict_probs(params, x),
                              _softmax(hidden @ head.weights + head.bias))

    def test_head_averaged(self):
        # a two-head model scores as the mean of its heads, each taken as a
        # one-head model over the shared encoder, bit for bit
        feat = Featurizer(hash_dim=64, hash_seed=0)
        params = init_params(feat, n_labels=2, hidden_size=4, n_heads=2, seed=0)
        x = featurize_texts(feat, ["abc def", "ghi", "abc jkl mno"])
        one, two = (predict_probs(ModelParams(params.encoder, [h]), x)
                    for h in params.heads)
        assert np.array_equal(predict_probs(params, x), (one + two) / 2)

    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_evaluate_is_an_ensemble_of_one(self, n_heads):
        feat = Featurizer(hash_dim=64, hash_seed=0)
        params = init_params(feat, n_labels=3, hidden_size=8, n_heads=n_heads,
                             seed=6)
        rng = np.random.default_rng(n_heads)
        texts = [f"tok{rng.integers(0, 30)} tok{rng.integers(0, 30)}"
                 for _ in range(40)]
        x = featurize_texts(feat, texts)
        y = rng.integers(0, 3, size=40)
        assert evaluate_features(params, x, y) == _predict_features([params], x, y)[0]

    def test_empty_dataset_rejected(self):
        feat = Featurizer(hash_dim=64, hash_seed=0)
        params = init_params(feat, n_labels=2, hidden_size=4, seed=0)
        x = featurize_texts(feat, [])
        with pytest.raises(ValidationError):
            evaluate_features(params, x, np.array([], dtype=np.int64))


class TestCheckpoints:
    def test_roundtrip_bit_exact(self, tmp_path):
        feat = Featurizer(hash_dim=128, ngram_orders=(1, 2), hash_seed=3)
        params = init_params(feat, n_labels=4, hidden_size=6, n_heads=2,
                             drop_rate=0.2, seed=11)
        path = tmp_path / "model"
        save_model(path, feat, params)
        assert list(tmp_path.iterdir()) == [path]  # no suffix added
        assert os.path.getsize(path) == len(path.read_bytes()) > 128 * 6 * 8
        feat2, params2 = load_model(path)
        assert feat2 == feat
        assert params2.drop_rate == 0.2 and params2.n_heads == 2
        for a1, a2 in zip(params.arrays(), params2.arrays(), strict=True):
            assert a2.dtype == np.float64
            assert np.array_equal(a1, a2)
        path2 = tmp_path / "model2.ckpt"
        save_model(path2, feat2, params2)
        assert path.read_bytes() == path2.read_bytes()

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}', encoding="utf-8")
        with pytest.raises(ValidationError, match="version"):
            load_model(path)


class TestTrainConfig:
    def test_warmup_schedule(self):
        cfg = TrainConfig(learning_rate=0.4, warmup_steps=10)
        assert cfg.effective_lr(5) == pytest.approx(0.2)
        assert cfg.effective_lr(10) == pytest.approx(0.4)
        assert cfg.effective_lr(500) == pytest.approx(0.4)
        assert TrainConfig(learning_rate=0.4).effective_lr(1) == 0.4

    def test_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(steps=0)
        with pytest.raises(ValidationError):
            TrainConfig(drop_rate=1.0)
        with pytest.raises(ValidationError):
            TrainConfig(patience=0)
