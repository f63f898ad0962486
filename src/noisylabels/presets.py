"""Named desk-scale experiment presets.

Each preset bundles a synthetic corpus, a split, and a noise process sized to
reproduce one qualitative regime:

* "separable": clean, disjoint class vocabularies; the sanity baseline.
* "yoruba_like": 7 classes, ~1340 training texts, moderately skewed classes,
  gazetteer-style rule noise around a third of the training set. Most errors
  sit next to strong gold evidence, so loss-based cleaning recovers well.
* "hausa_like": 5 classes, ~2045 training texts, rule noise around half the
  training set including one class whose errors outnumber its correct labels
  (the thief rule captures that class's own core words, which makes the
  errors self-consistent and hard to clean).

Rule labelers are built from the same class vocabularies as the corpus, the
way gazetteers are built from topic word lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .data import Dataset, SplitSpec, generate_synthetic_corpus, split_dataset, \
    synthetic_class_vocabularies
from .errors import ValidationError
from .model import Featurizer, TrainConfig
from .noise import LabelRule, RuleLabeler, apply_noise


def core_vocabulary_rules(
    n_classes: int,
    vocab_per_class: int,
    overlap: float,
    core_size: int,
    theft: dict[int, tuple[int, int]] | None = None,
) -> RuleLabeler:
    """Gazetteer-style labeler over the synthetic class vocabularies.

    Rule c matches on a core subset of class c's private tokens plus the
    tokens it shares with class c+1, so texts of class c+1 that use shared
    vocabulary get pulled to label c (first match wins). theft maps a thief
    class to (victim class, token count): the thief's rule additionally
    claims that many of the victim's own non-shared tokens, which makes the
    victim's errors self-consistent rather than incidental.
    """
    vocabs = [list(v) for v in
              synthetic_class_vocabularies(n_classes, vocab_per_class, overlap)]
    sets = [set(v) for v in vocabs]
    zones = [sets[c] & sets[(c + 1) % n_classes] for c in range(n_classes)]

    def private(c: int) -> list[str]:
        return [t for t in vocabs[c]
                if t not in zones[c] and t not in zones[(c - 1) % n_classes]]

    rules = []
    for c in range(n_classes):
        keywords = set(private(c)[:core_size]) | zones[c]
        if theft and c in theft:
            victim, count = theft[c]
            keywords |= set(private(victim)[-count:])
        rules.append(LabelRule(frozenset(keywords), c))
    return RuleLabeler(tuple(rules), fallback="abstain")


@dataclass(frozen=True)
class Preset:
    """A reproducible experiment setting: corpus + splits + noise process."""

    name: str
    n_classes: int
    n_instances: int
    vocab_per_class: int
    overlap: float
    class_weights: tuple[float, ...] | None
    global_token_fraction: float
    labeler: RuleLabeler | None
    corpus_seed: int
    split: SplitSpec
    annotators_per_instance: int = 0
    annotator_disagreement: float = 0.35
    # not fields: every preset trains with the library defaults, as does a
    # config that names it and has no featurizer or train section
    featurizer = Featurizer()
    train_config = TrainConfig()

    def __post_init__(self):
        if self.class_weights is not None:  # a list would make the preset unhashable
            object.__setattr__(self, "class_weights", tuple(self.class_weights))

    @lru_cache(maxsize=1)
    def clean_splits(self) -> tuple[Dataset, Dataset, Dataset]:
        """The splits, built once per process for the last preset asked for;
        equal presets share them, as immutable Datasets."""
        corpus = generate_synthetic_corpus(
            self.n_classes, self.n_instances, self.vocab_per_class, self.overlap,
            seed=self.corpus_seed, class_weights=self.class_weights,
            global_token_fraction=self.global_token_fraction,
            annotators_per_instance=self.annotators_per_instance,
            annotator_disagreement=self.annotator_disagreement,
        )
        return split_dataset(corpus, self.split)

    def noisy_splits(self) -> tuple[Dataset, Dataset, Dataset]:
        """Splits with the preset's rule labeler, if it has one, applied to
        train and validation; the test split always stays clean."""
        train, val, test = self.clean_splits()
        return (apply_noise(train, None, 0, self.labeler),
                apply_noise(val, None, 1, self.labeler), test)


# name -> (default corpus seed, every other Preset field); each preset splits
# 70/10/20, shuffled by its corpus seed
_PRESETS = {
    # 5 balanced classes with disjoint vocabularies; trivially learnable
    "separable": (101, dict(
        n_classes=5, n_instances=2000, vocab_per_class=40, overlap=0.0,
        class_weights=None, global_token_fraction=0.0, labeler=None,
        annotators_per_instance=3)),
    # 7 moderately skewed classes, ~1340 train texts, ~35% rule noise
    "yoruba_like": (2024, dict(
        n_classes=7, n_instances=1908, vocab_per_class=60, overlap=2 / 60,
        class_weights=(0.7, 0.8, 0.9, 1.0, 1.1, 1.3, 1.6),
        global_token_fraction=0.06,
        labeler=core_vocabulary_rules(7, 60, 2 / 60, core_size=18))),
    # 5 classes, ~2045 train texts, ~50% rule noise, one class whose rule
    # errors outnumber its correct labels
    "hausa_like": (4477, dict(
        n_classes=5, n_instances=2921, vocab_per_class=60, overlap=0.05,
        class_weights=(1.2, 1.0, 1.1, 0.95, 0.9), global_token_fraction=0.03,
        labeler=core_vocabulary_rules(5, 60, 0.05, core_size=20,
                                      theft={0: (1, 9), 1: (2, 4)}))),
}
PRESET_NAMES = tuple(_PRESETS)


def get_preset(name: str, corpus_seed: int | None = None) -> Preset:
    """The named preset, its corpus and split drawn from corpus_seed (None:
    the preset's own seed)."""
    if name not in _PRESETS:
        raise ValidationError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    default_seed, fields = _PRESETS[name]
    seed = default_seed if corpus_seed is None else corpus_seed
    return Preset(name=name, **fields, corpus_seed=seed,
                  split=SplitSpec(0.70, 0.10, 0.20, seed=seed))
