import json

import numpy as np
import pytest

from noisylabels import (
    Dataset,
    Instance,
    LabelRule,
    LabelSet,
    RuleLabeler,
    UnreachableNoiseLevelError,
    ValidationError,
    generate_synthetic_corpus,
    inject_annotation_noise,
    inject_rule_noise,
    inject_uniform_noise,
    noise_level,
    noise_matrix,
    synthetic_class_vocabularies,
)


def balanced_corpus(k, n, seed=0):
    return generate_synthetic_corpus(k, n, 10, 0.0, seed=seed)


class TestUniformNoise:
    def test_level_zero_identity(self):
        d = balanced_corpus(3, 90)
        noised = inject_uniform_noise(d, 0.0, seed=1)
        assert noised == d
        assert noise_level(noised) == 0.0

    def test_exact_flip_count(self):
        d = balanced_corpus(4, 1000)
        noised = inject_uniform_noise(d, 0.3, seed=5)
        flips = sum(i.observed_label != i.gold_label for i in noised)
        assert flips == 300

    def test_binary_offdiagonal_split(self):
        # brute-force count over the injected dataset: for K=2 every flip
        # lands in the single off-diagonal cell of its gold row
        d = balanced_corpus(2, 1000)
        noised = inject_uniform_noise(d, 0.3, seed=11)
        counts = noise_matrix(noised).counts
        assert counts[0, 1] + counts[1, 0] == 300
        # balanced classes: each off-diagonal cell near 150
        assert abs(counts[0, 1] - 150) <= 40
        assert abs(counts[1, 0] - 150) <= 40

    def test_measured_level_is_count_forced(self):
        d = balanced_corpus(5, 800)
        for level in (0.1, 0.2, 0.3):
            noised = inject_uniform_noise(d, level, seed=3)
            assert noise_level(noised) == round(level * 800) / 800

    def test_flips_never_hit_gold(self):
        d = balanced_corpus(6, 600)
        noised = inject_uniform_noise(d, 1.0, seed=2)
        assert all(i.observed_label != i.gold_label for i in noised)

    def test_renoising_starts_from_gold(self):
        d = balanced_corpus(3, 300)
        once = inject_uniform_noise(d, 0.5, seed=1)
        twice = inject_uniform_noise(once, 0.1, seed=2)
        assert noise_level(twice) == round(0.1 * 300) / 300

    def test_requires_gold(self):
        labels = LabelSet(("a", "b"))
        d = Dataset(labels, (Instance("i", "t", 0),))
        with pytest.raises(ValidationError, match="gold"):
            inject_uniform_noise(d, 0.1, seed=0)


class TestRuleNoise:
    def test_consistent_labeler_gives_zero_noise(self):
        d = balanced_corpus(3, 300, seed=4)
        vocabs = synthetic_class_vocabularies(3, 10, 0.0)
        rules = tuple(LabelRule(frozenset(v), c) for c, v in enumerate(vocabs))
        noised = inject_rule_noise(d, RuleLabeler(rules))
        assert noise_level(noised) == 0.0

    def test_overlapping_rules_deterministic_noise(self):
        corpus = generate_synthetic_corpus(4, 400, 10, 0.4, seed=6)
        vocabs = synthetic_class_vocabularies(4, 10, 0.4)
        rules = tuple(LabelRule(frozenset(v), c) for c, v in enumerate(vocabs))
        labeler = RuleLabeler(rules)
        a = inject_rule_noise(corpus, labeler)
        b = inject_rule_noise(corpus, labeler)
        assert noise_level(a) > 0.0
        assert np.array_equal(noise_matrix(a).counts, noise_matrix(b).counts)
        assert a == b

    def test_idempotent(self):
        corpus = generate_synthetic_corpus(4, 200, 10, 0.5, seed=8)
        vocabs = synthetic_class_vocabularies(4, 10, 0.5)
        labeler = RuleLabeler(tuple(LabelRule(frozenset(v), c)
                                    for c, v in enumerate(vocabs)))
        once = inject_rule_noise(corpus, labeler)
        assert inject_rule_noise(once, labeler) == once

    def test_identical_texts_identical_labels(self):
        labels = LabelSet(("a", "b"))
        d = Dataset(labels, (Instance("i0", "same words here", 0, 0),
                             Instance("i1", "same words here", 1, 1),
                             Instance("i2", "other stuff", 0, 0)))
        labeler = RuleLabeler((LabelRule(frozenset({"words"}), 1),),
                              fallback="random", seed=3)
        noised = inject_rule_noise(d, labeler)
        assert noised.instances[0].observed_label == \
            noised.instances[1].observed_label == 1

    def test_random_fallback_stable_per_text(self):
        labels = LabelSet(("a", "b", "c"))
        d = Dataset(labels, tuple(Instance(f"i{j}", f"text number {j}", 0, 0)
                                  for j in range(20)))
        labeler = RuleLabeler((LabelRule(frozenset({"zzz"}), 1),),
                              fallback="random", seed=5)
        a = inject_rule_noise(d, labeler)
        assert inject_rule_noise(d, labeler) == a

    def test_abstain_keeps_gold_and_coverage_marks(self):
        labels = LabelSet(("a", "b"))
        d = Dataset(labels, (Instance("i0", "alpha", 0, 0),
                             Instance("i1", "beta", 0, 1)))
        labeler = RuleLabeler((LabelRule(frozenset({"beta"}), 0),))
        noised = inject_rule_noise(d, labeler)
        assert noised.instances[0].observed_label == 0  # abstained, kept gold
        assert noised.instances[1].observed_label == 0  # rule fired

    def test_unknown_label_index_rejected(self):
        d = balanced_corpus(2, 20)
        labeler = RuleLabeler((LabelRule(frozenset({"x"}), 7),))
        with pytest.raises(ValidationError, match="unknown label"):
            inject_rule_noise(d, labeler)


class TestAnnotationNoise:
    def corpus(self, n=1000, disagreement=0.6, seed=0):
        return generate_synthetic_corpus(4, n, 10, 0.0, seed=seed,
                                         annotators_per_instance=3,
                                         annotator_disagreement=disagreement)

    def test_level_zero_identity(self):
        d = self.corpus(200)
        assert inject_annotation_noise(d, 0.0, seed=1) == d

    def test_all_agree_unreachable(self):
        d = self.corpus(100, disagreement=0.0)
        with pytest.raises(UnreachableNoiseLevelError) as exc:
            inject_annotation_noise(d, 0.1, seed=1)
        assert exc.value.max_attainable == 0.0

    def test_exact_count_and_membership(self):
        # membership oracle: every noised label must come from that
        # instance's own annotator pool
        d = self.corpus(1000, disagreement=0.9)
        noised = inject_annotation_noise(d, 0.2, seed=13)
        flipped = [(a, b) for a, b in zip(d, noised)
                   if b.observed_label != b.gold_label]
        assert len(flipped) == 200
        for orig, new in flipped:
            assert new.observed_label in orig.annotator_labels

    def test_reports_max_attainable(self):
        d = self.corpus(100, disagreement=0.3, seed=5)
        eligible = sum(1 for i in d
                       if any(a != i.gold_label for i in [i]
                              for a in i.annotator_labels))
        with pytest.raises(UnreachableNoiseLevelError) as exc:
            inject_annotation_noise(d, 1.0, seed=1)
        assert exc.value.max_attainable == eligible / 100

    def test_missing_annotators_rejected(self):
        d = generate_synthetic_corpus(3, 30, 10, 0.0, seed=1)
        with pytest.raises(ValidationError, match="annotator"):
            inject_annotation_noise(d, 0.1, seed=0)


class TestNoiseStats:
    def test_diagonal_for_clean_data(self):
        d = balanced_corpus(3, 120)
        m = noise_matrix(d)
        assert np.trace(m.counts) == 120
        assert noise_level(d) == 0.0

    def test_total_is_dataset_size(self):
        d = inject_uniform_noise(balanced_corpus(4, 500), 0.37, seed=3)
        assert noise_matrix(d).counts.sum() == 500

    def test_reference_levels_measured_exactly(self):
        # published corpus noise rates: 33.28% and 50.37%
        d = balanced_corpus(7, 10000, seed=1)
        noised = inject_uniform_noise(d, 0.3328, seed=2)
        assert abs(noise_level(noised) - 0.3328) <= 5e-4
        d = balanced_corpus(5, 10000, seed=2)
        noised = inject_uniform_noise(d, 0.5037, seed=3)
        assert abs(noise_level(noised) - 0.5037) <= 5e-4

    def test_level_matches_matrix(self):
        d = inject_uniform_noise(balanced_corpus(5, 777), 0.21, seed=9)
        m = noise_matrix(d)
        assert abs(noise_level(d) - (1 - np.trace(m.counts) / m.counts.sum())) < 1e-12

    def test_row_normalized(self):
        d = inject_uniform_noise(balanced_corpus(4, 400), 0.4, seed=7)
        rn = noise_matrix(d).row_normalized()
        sums = rn.sum(axis=1)
        assert np.allclose(sums[sums > 0], 1.0, atol=1e-9)

    def test_empty_dataset_level_rejected(self):
        d = Dataset(LabelSet(("a", "b")), ())
        with pytest.raises(ValidationError):
            noise_level(d)

    def test_csv_and_json_exports(self, tmp_path):
        d = inject_uniform_noise(balanced_corpus(3, 90), 0.3, seed=1)
        m = noise_matrix(d)
        csv_text = m.to_csv()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "gold\\observed,class0,class1,class2"
        assert len(lines) == 4
        # row sums in the CSV equal per-class instance counts
        gold_counts = np.bincount(d.gold(), minlength=3)
        for row, expected in zip(lines[1:], gold_counts):
            assert sum(int(v) for v in row.split(",")[1:]) == expected
        payload = json.loads(m.to_json())
        assert payload["labels"] == ["class0", "class1", "class2"]
        assert np.array_equal(payload["counts"], m.counts)
        json_path = tmp_path / "m.json"
        m.save(json_path)
        assert json.loads(json_path.read_text())["counts"] == m.counts.tolist()
