import numpy as np
import pytest

from noisylabels import training
from noisylabels import (
    Dataset,
    Featurizer,
    Instance,
    LabelSet,
    SplitSpec,
    TrainConfig,
    generate_synthetic_corpus,
    split_dataset,
)


@pytest.fixture(scope="session")
def tiny_featurizer():
    return Featurizer(hash_dim=1024, ngram_orders=(1, 2), hash_seed=0)


@pytest.fixture(scope="session")
def fast_config():
    return TrainConfig(steps=200, learning_rate=0.5, patience=6, weight_decay=1e-4,
                       drop_rate=0.1, batch_size=16, eval_every=25, seed=0,
                       hidden_size=32)


@pytest.fixture(scope="session")
def small_splits():
    """Separable 3-class corpus split into train/val/test."""
    corpus = generate_synthetic_corpus(3, 400, 20, 0.0, seed=7)
    return split_dataset(corpus, SplitSpec(0.7, 0.15, 0.15, seed=7))


@pytest.fixture()
def toy_dataset():
    labels = LabelSet(("a", "b"))
    instances = (
        Instance("i0", "alpha beta", 0, 0),
        Instance("i1", "gamma delta", 1, 1, (1, 0, 1)),
        Instance("i2", "epsilon zeta", 0, 1),
    )
    return Dataset(labels, instances)


@pytest.fixture()
def no_training(monkeypatch):
    """Make training.Featurized.of, which every training starts with, fail
    the test: for inputs that must be refused before anything trains."""
    def reached(*args, **kwargs):
        raise AssertionError("training started before the input was refused")

    monkeypatch.setattr(training.Featurized, "of", reached)


@pytest.fixture()
def no_consensus(monkeypatch):
    """Wrap training.ceta_batch_objective so every batch's consensus mask is
    all False; returns the list of the wrapped calls' batch sizes."""
    real, calls = training.ceta_batch_objective, []

    def wrapped(*args, **kwargs):
        loss, grads, consensus, tv_mean = real(*args, **kwargs)
        calls.append(len(consensus))
        return loss, grads, np.zeros_like(consensus), tv_mean

    monkeypatch.setattr(training, "ceta_batch_objective", wrapped)
    return calls
