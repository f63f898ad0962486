"""Label-noise injectors (uniform, rule-based, annotation-derived) and noise stats.

All injectors are pure functions of (dataset, parameters, seed): they return a
new Dataset whose observed labels are re-derived from gold, so applying them
repeatedly or concurrently is safe. apply_noise maps a config's noise section
to its injector.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import UnreachableNoiseLevelError, ValidationError
from .util import checked_call, derive_rng, stable_hash

# noise kind -> the keys its config section may hold besides "kind"
NOISE_KEYS = {"none": (), "uniform_random": ("level",),
              "pseudo_real_world": ("level",),
              "feature_dependent": ("rules", "fallback", "seed")}


@dataclass(frozen=True)
class NoiseMatrix:
    """K x K counts of gold label (row) versus observed label (column)."""

    counts: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        k = len(self.labels)
        if counts.shape != (k, k) or (counts < 0).any():
            raise ValidationError("counts must be a non-negative KxK matrix")
        object.__setattr__(self, "counts", counts)

    def row_normalized(self) -> np.ndarray:
        """Rows as probability distributions; all-zero rows stay zero."""
        sums = self.counts.sum(axis=1, keepdims=True)
        out = np.zeros_like(self.counts, dtype=float)
        nonzero = sums[:, 0] > 0
        out[nonzero] = self.counts[nonzero] / sums[nonzero]
        return out

    def to_csv(self) -> str:
        """CSV with a label header row and a leading gold-label column."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["gold\\observed", *self.labels])
        for name, row in zip(self.labels, self.counts):
            writer.writerow([name, *(int(v) for v in row)])
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "labels": list(self.labels),
            "counts": self.counts.tolist(),
            "row_normalized": self.row_normalized().tolist(),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def save(self, path: str | Path) -> None:
        path = Path(path)
        text = self.to_json() + "\n" if path.suffix == ".json" else self.to_csv()
        path.write_text(text, encoding="utf-8", newline="\n")


def noise_matrix(dataset: Dataset) -> NoiseMatrix:
    """Count gold-vs-observed label pairs; requires gold labels."""
    dataset.require_gold()
    k = len(dataset.label_set)
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (dataset.gold(), dataset.observed()), 1)
    return NoiseMatrix(counts, dataset.label_set.names)


def noise_level(dataset: Dataset) -> float:
    """Fraction of instances whose observed label differs from gold."""
    if len(dataset) == 0:
        raise ValidationError("noise level of an empty dataset is undefined")
    dataset.require_gold()
    return float(np.mean(dataset.gold() != dataset.observed()))


# ---------------------------------------------------------------------------
# Feature-independent (uniform random) noise
# ---------------------------------------------------------------------------


def inject_uniform_noise(dataset: Dataset, level: float, seed: int) -> Dataset:
    """Flip exactly round(level * n) gold labels to uniformly random other labels."""
    if not 0.0 <= level <= 1.0:
        raise ValidationError("level must be in [0, 1]")
    dataset.require_gold()
    gold = dataset.gold()
    n, k = len(dataset), len(dataset.label_set)
    rng = derive_rng(seed, "uniform-noise")
    flips = rng.choice(n, size=round(level * n), replace=False)
    observed = gold.copy()
    if flips.size:
        # draw from the K-1 labels != gold by skipping the gold index
        draws = rng.integers(0, k - 1, size=flips.size)
        observed[flips] = draws + (draws >= gold[flips])
    return dataset.with_observed(observed)


# ---------------------------------------------------------------------------
# Feature-dependent noise via keyword rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabelRule:
    """Keyword set mapped to a label index; matches on token intersection."""

    keywords: frozenset[str]
    label: int

    def __post_init__(self):
        object.__setattr__(self, "keywords",
                           frozenset(k.lower() for k in self.keywords))
        if not self.keywords:
            raise ValidationError("a rule needs at least one keyword")


@dataclass(frozen=True)
class RuleLabeler:
    """Ordered keyword rules; the first rule whose keywords hit the text wins.

    fallback: "abstain" leaves unmatched instances alone (they keep gold),
    "random" assigns a label by hashing the text with the seed, so the same
    text always receives the same label and injection stays idempotent.
    """

    rules: tuple[LabelRule, ...]
    fallback: str = "abstain"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        if not self.rules:
            raise ValidationError("labeler needs at least one rule")
        if self.fallback not in ("abstain", "random"):
            raise ValidationError("fallback must be 'abstain' or 'random'")

    def label_for(self, text: str, n_labels: int) -> int | None:
        """Label index for a text, or None when abstaining."""
        tokens = set(text.lower().split())
        for rule in self.rules:
            if tokens & rule.keywords:
                return rule.label
        if self.fallback == "abstain":
            return None
        return stable_hash(text, self.seed) % n_labels

    def validate_against(self, n_labels: int) -> None:
        for i, rule in enumerate(self.rules):
            if not 0 <= rule.label < n_labels:
                raise ValidationError(
                    f"rule {i} references unknown label index {rule.label}")


def inject_rule_noise(dataset: Dataset, labeler: RuleLabeler) -> Dataset:
    """Relabel by keyword rules; unmatched instances follow the fallback policy.

    Deterministic given the labeler: identical texts always receive identical
    observed labels, which is what makes this noise feature-dependent.
    """
    dataset.require_gold()
    k = len(dataset.label_set)
    labeler.validate_against(k)
    observed = []
    for inst in dataset.instances:
        lab = labeler.label_for(inst.text, k)
        observed.append(inst.gold_label if lab is None else lab)
    return dataset.with_observed(observed)


# ---------------------------------------------------------------------------
# Pseudo-real-world noise from annotator disagreements
# ---------------------------------------------------------------------------


def inject_annotation_noise(dataset: Dataset, level: float, seed: int) -> Dataset:
    """Replace round(level * n) gold labels with disagreeing annotator labels.

    Instances are sampled among those with at least one annotator label that
    differs from gold; each sampled instance gets a seeded-uniform choice from
    its own disagreeing annotator labels. Raises when the requested level
    exceeds what the available disagreements can supply.
    """
    if not 0.0 <= level <= 1.0:
        raise ValidationError("level must be in [0, 1]")
    dataset.require_gold()
    for inst in dataset.instances:
        if not inst.annotator_labels:
            raise ValidationError(
                f"instance {inst.id!r} has no annotator labels")
    n = len(dataset)
    gold = dataset.gold()
    disagreeing = [
        [a for a in inst.annotator_labels if a != inst.gold_label]
        for inst in dataset.instances
    ]
    eligible = np.array([i for i, labs in enumerate(disagreeing) if labs])
    target = round(level * n)
    if target > eligible.size:
        raise UnreachableNoiseLevelError(level, eligible.size / n)
    rng = derive_rng(seed, "annotation-noise")
    observed = gold.copy()
    if target:
        chosen = rng.choice(eligible, size=target, replace=False)
        for i in chosen:
            pool = disagreeing[int(i)]
            observed[i] = pool[int(rng.integers(0, len(pool)))]
    return dataset.with_observed(observed)


# ---------------------------------------------------------------------------
# Noise config sections
# ---------------------------------------------------------------------------


def _build_labeler(noise: dict, dataset: Dataset) -> RuleLabeler:
    rules_raw = noise["rules"]
    if not isinstance(rules_raw, list) or not rules_raw:
        raise ValidationError("'rules' must be a non-empty list of "
                              "{keywords, label} objects")
    rules = []
    for i, r in enumerate(rules_raw):
        keywords, label = (r["keywords"], r["label"]) \
            if isinstance(r, dict) and set(r) == {"keywords", "label"} else (None, None)
        if not (isinstance(keywords, list) and all(isinstance(k, str) for k in keywords)
                and isinstance(label, (int, str)) and not isinstance(label, bool)):
            raise ValidationError(f"rule {i} needs a 'keywords' list of strings "
                                  "and a label name or index, and nothing else")
        idx = dataset.label_set.index_of(label) if isinstance(label, str) else label
        rules.append(LabelRule(frozenset(keywords), idx))
    return checked_call(RuleLabeler, {"rules": tuple(rules),
                                      **{k: noise[k] for k in ("fallback", "seed")
                                         if k in noise}}, "feature_dependent noise")


def apply_noise(dataset: Dataset, noise: dict | None, seed: int,
                labeler: RuleLabeler | None = None) -> Dataset:
    """dataset noised as a config's noise section says.

    The section names its "kind", one of NOISE_KEYS. uniform_random and
    pseudo_real_world take a "level" and draw from seed. feature_dependent
    takes "rules" with an optional "fallback" and "seed", or no other key to
    apply labeler (a preset's own). Any other key raises ValidationError.
    No section (None) applies labeler when there is one, else no noise.
    """
    if noise is None:
        noise = {"kind": "none" if labeler is None else "feature_dependent"}
    kind = noise.get("kind") if isinstance(noise, dict) else None
    if not isinstance(kind, str) or kind not in NOISE_KEYS:
        raise ValidationError("noise must be an object whose 'kind' is one of "
                              f"{tuple(NOISE_KEYS)}")
    unknown = sorted(set(noise) - {"kind", *NOISE_KEYS[kind]})
    if unknown:
        raise ValidationError(f"{kind} noise takes no {unknown}")
    if kind == "none":
        return dataset
    if kind == "feature_dependent":
        if "rules" in noise:
            labeler = _build_labeler(noise, dataset)
        elif labeler is None or len(noise) > 1:
            raise ValidationError("feature_dependent noise needs 'rules', or a "
                                  "preset's rule labeler and no other key")
        return inject_rule_noise(dataset, labeler)
    inject = inject_uniform_noise if kind == "uniform_random" \
        else inject_annotation_noise
    return checked_call(inject, {"dataset": dataset, "level": noise.get("level", 0.0),
                                 "seed": seed}, f"{kind} noise")
