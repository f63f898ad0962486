import numpy as np
import pytest

from noisylabels import (
    ValidationError,
    get_preset,
    noise_level,
    noise_matrix,
)


class TestSeparable:
    def test_clean_and_balanced(self):
        train, val, test = get_preset("separable").clean_splits()
        assert noise_level(train) == 0.0
        assert (len(train), len(val), len(test)) == (1400, 200, 400)

    def test_annotators_attached(self):
        train, _, _ = get_preset("separable").clean_splits()
        assert all(len(i.annotator_labels) == 3 for i in train)


class TestYorubaLike:
    def test_dimensions_and_noise_level(self):
        preset = get_preset("yoruba_like")
        train, val, test = preset.noisy_splits()
        assert len(train.label_set) == 7
        assert abs(len(train) - 1340) <= 10
        assert 0.28 <= noise_level(train) <= 0.42
        assert noise_level(val) > 0.0  # validation is noised too
        assert (test.observed() == test.gold()).all()  # test stays clean

    def test_moderate_skew(self):
        train, _, _ = get_preset("yoruba_like").clean_splits()
        counts = np.bincount(train.gold(), minlength=7)
        assert counts.max() / counts.min() > 1.5

    def test_no_majority_wrong_class(self):
        train, _, _ = get_preset("yoruba_like").noisy_splits()
        diag = noise_matrix(train).row_normalized().diagonal()
        assert (diag > 0.5).all()

    def test_deterministic(self):
        a = get_preset("yoruba_like").noisy_splits()
        b = get_preset("yoruba_like").noisy_splits()
        assert a == b


class TestHausaLike:
    def test_dimensions_and_noise_level(self):
        train, val, test = get_preset("hausa_like").noisy_splits()
        assert len(train.label_set) == 5
        assert abs(len(train) - 2045) <= 10
        assert 0.42 <= noise_level(train) <= 0.58
        assert (test.observed() == test.gold()).all()

    def test_has_majority_wrong_class(self):
        train, _, _ = get_preset("hausa_like").noisy_splits()
        diag = noise_matrix(train).row_normalized().diagonal()
        assert diag.min() < 0.5  # errors exceed correct labels somewhere


class TestLookup:
    def test_get_preset(self):
        assert get_preset("separable").name == "separable"
        assert get_preset("yoruba_like", corpus_seed=5).corpus_seed == 5

    def test_unknown_rejected(self):
        with pytest.raises(ValidationError):
            get_preset("mnist")
