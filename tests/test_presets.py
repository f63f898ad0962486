from dataclasses import fields, replace

import numpy as np
import pytest

from noisylabels import (
    ValidationError,
    apply_noise,
    generate_synthetic_corpus,
    get_preset,
    noise_level,
    noise_matrix,
    split_dataset,
)
from noisylabels.presets import Preset


def fresh_clean_splits(preset):
    """The preset's splits generated anew from its fields, past the memo."""
    corpus = generate_synthetic_corpus(
        preset.n_classes, preset.n_instances, preset.vocab_per_class,
        preset.overlap, seed=preset.corpus_seed,
        class_weights=preset.class_weights,
        global_token_fraction=preset.global_token_fraction,
        annotators_per_instance=preset.annotators_per_instance,
        annotator_disagreement=preset.annotator_disagreement)
    return split_dataset(corpus, preset.split)


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
        # the memo makes a == b hold by construction; a fresh generation
        # checks the splits themselves are reproducible
        preset = get_preset("yoruba_like")
        train, val, test = fresh_clean_splits(preset)
        assert a == (apply_noise(train, None, 0, preset.labeler),
                     apply_noise(val, None, 1, preset.labeler), test)


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


class TestCleanSplitsMemo:
    @pytest.mark.parametrize("name,corpus_seed", [
        ("separable", None), ("yoruba_like", None), ("hausa_like", None),
        ("yoruba_like", 5)])
    def test_equals_a_fresh_generation(self, name, corpus_seed):
        preset = get_preset(name, corpus_seed)
        assert preset.clean_splits() == fresh_clean_splits(preset)

    def test_second_call_returns_the_same_objects(self):
        first = get_preset("hausa_like").clean_splits()
        second = get_preset("hausa_like").clean_splits()
        assert all(a is b for a, b in zip(first, second))

    def test_alternating_presets_get_their_own_splits(self):
        yoruba, hausa = get_preset("yoruba_like"), get_preset("hausa_like")
        expected = {"yoruba_like": fresh_clean_splits(yoruba),
                    "hausa_like": fresh_clean_splits(hausa)}
        for preset in (yoruba, hausa, yoruba):
            assert preset.clean_splits() == expected[preset.name]
        assert get_preset("yoruba_like", 5).clean_splits() != expected["yoruba_like"]

    def test_list_class_weights_equal_their_tuple_twin(self):
        twin = get_preset("yoruba_like", 7)
        kwargs = {f.name: getattr(twin, f.name) for f in fields(twin)}
        listed = Preset(**{**kwargs, "class_weights": list(twin.class_weights)})
        assert listed.class_weights == twin.class_weights
        assert listed == twin and hash(listed) == hash(twin)
        assert listed.clean_splits() == fresh_clean_splits(twin)
        assert replace(twin, class_weights=[1.0] * 7).class_weights == (1.0,) * 7
