"""Probability-averaging ensembles: homogeneous (varied hyperparameters),
heterogeneous (varied training methods), and subset ensembles that train each
member on a random fraction of the training data.

A member is any ModelParams; multi-head members contribute their head-averaged
probabilities, so consensus-trained models slot in unchanged.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import MethodError, ValidationError
from .model import (
    Featurizer,
    ModelParams,
    TrainConfig,
    featurize_dataset,
    load_model,
    predict_probs,
    save_model,
)
from .training import CetaConfig, CoteachSchedule, Featurized, _train_ceta, \
    _train_coteaching, _train_vanilla
from .util import derive_rng, run_indexed

logger = logging.getLogger(__name__)

ENSEMBLE_KINDS = ("homogeneous", "heterogeneous", "boosting")
MEMBER_METHODS = ("vanilla", "coteaching", "ceta")


@dataclass(frozen=True)
class GridLists:
    """Value lists sampled when building homogeneous-ensemble configs."""

    steps: tuple[int, ...]
    learning_rate: tuple[float, ...]
    patience: tuple[int, ...]
    warmup_steps: tuple[int, ...]
    weight_decay: tuple[float, ...]
    drop_rate: tuple[float, ...]


# Sized for fine-tuning large pretrained encoders; far too slow a learning
# rate for the built-in hashed-ngram model, which uses COMPACT_GRID instead.
LARGE_MODEL_GRID = GridLists(
    steps=(2000, 3000, 4000, 5000, 6000),
    learning_rate=(0.0002, 0.0004, 0.0005, 0.00001, 0.00002, 0.00003, 0.00004,
                   0.00005),
    patience=(25, 30, 40, 50),
    warmup_steps=(0, 1, 5, 7, 10),
    weight_decay=(0.1, 0.001, 0.0001),
    drop_rate=(0.1, 0.25, 0.5, 0.8),
)

COMPACT_GRID = GridLists(
    steps=(400, 600, 800, 1000),
    learning_rate=(0.25, 0.35, 0.5, 0.7),
    patience=(6, 8, 10),
    warmup_steps=(0, 10, 25),
    weight_decay=(1e-4, 1e-3),
    drop_rate=(0.0, 0.1, 0.2),
)


def sample_grid_configs(lists: GridLists, m: int, seed: int,
                        base: TrainConfig) -> list[TrainConfig]:
    """m configs cycling the grid, guaranteed distinct (steps, lr) pairs,
    with member seeds base.seed, base.seed+1, ...

    The (steps, learning_rate) pair is sampled without replacement; the
    remaining fields are drawn independently per member.
    """
    pairs = list(itertools.product(lists.steps, lists.learning_rate))
    if m < 1 or m > len(pairs):
        raise ValidationError(
            f"member count {m} must be in [1, {len(pairs)}] for this grid")
    rng = derive_rng(seed, "hyper-grid")
    chosen = rng.choice(len(pairs), size=m, replace=False)
    configs = []
    for i, pair_idx in enumerate(chosen):
        steps, lr = pairs[int(pair_idx)]
        configs.append(replace(
            base,
            steps=steps,
            learning_rate=lr,
            patience=int(rng.choice(lists.patience)),
            warmup_steps=int(rng.choice(lists.warmup_steps)),
            weight_decay=float(rng.choice(lists.weight_decay)),
            drop_rate=float(rng.choice(lists.drop_rate)),
            seed=base.seed + i,
        ))
    return configs


@dataclass(frozen=True)
class EnsembleSpec:
    """What to ensemble and how the members differ.

    homogeneous: one vanilla member per hyperparameter_grid entry.
    heterogeneous: one member per entry of member_methods.
    boosting: member_count vanilla members, each on a seeded random subset of
    round(subset_fraction * n) training instances (without replacement).
    """

    kind: str
    member_count: int = 1
    hyperparameter_grid: tuple[TrainConfig, ...] | None = None
    member_methods: tuple[str, ...] | None = None
    subset_fraction: float = 0.8
    base_config: TrainConfig = TrainConfig()
    coteach: CoteachSchedule = CoteachSchedule()
    ceta: CetaConfig = CetaConfig()
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValidationError(f"kind must be one of {ENSEMBLE_KINDS}")
        if self.member_count < 1:
            raise ValidationError("member_count must be >= 1")
        if self.kind == "homogeneous":
            if not self.hyperparameter_grid:
                raise ValidationError("homogeneous ensembles need a config grid")
            object.__setattr__(self, "hyperparameter_grid",
                               tuple(self.hyperparameter_grid))
            if len(self.hyperparameter_grid) != self.member_count:
                raise ValidationError("member_count must match the grid length")
        if self.kind == "heterogeneous":
            if not self.member_methods:
                raise ValidationError("heterogeneous ensembles need member_methods")
            object.__setattr__(self, "member_methods", tuple(self.member_methods))
            bad = set(self.member_methods) - set(MEMBER_METHODS)
            if bad:
                raise ValidationError(f"unknown member methods: {sorted(bad)}")
            if len(self.member_methods) != self.member_count:
                raise ValidationError("member_count must match member_methods")
        if self.kind == "boosting":
            if not 0.0 < self.subset_fraction <= 1.0:
                raise ValidationError("subset_fraction must be in (0, 1]")


def _collect_survivors(jobs, labels) -> list[ModelParams]:
    """Run members, dropping any that diverge; at least one must survive."""
    members: list[ModelParams] = []
    failures: list[str] = []
    for label, result in zip(labels, run_indexed(lambda fn: _try(fn), jobs)):
        if isinstance(result, MethodError):
            failures.append(f"{label}: {result}")
            logger.warning("ensemble member %s failed: %s", label, result)
        else:
            members.append(result)
    if not members:
        raise MethodError("every ensemble member failed: " + "; ".join(failures))
    return members


def _try(fn):
    try:
        return fn()
    except MethodError as exc:
        return exc


def train_homogeneous(train: Dataset, val: Dataset, spec: EnsembleSpec,
                      featurizer: Featurizer) -> list[ModelParams]:
    """One vanilla run per grid config, all on the full training set."""
    if spec.kind != "homogeneous":
        raise ValidationError("spec.kind must be 'homogeneous'")
    data = Featurized.of(featurizer, train, val)
    jobs = [lambda cfg=cfg: _train_vanilla(data, cfg)[0]
            for cfg in spec.hyperparameter_grid]
    labels = [f"member{i}" for i in range(spec.member_count)]
    return _collect_survivors(jobs, labels)


def train_heterogeneous(train: Dataset, val: Dataset, spec: EnsembleSpec,
                        featurizer: Featurizer) -> list[ModelParams]:
    """One member per method; co-teaching contributes its first network and
    consensus-trained members contribute head-averaged probabilities."""
    if spec.kind != "heterogeneous":
        raise ValidationError("spec.kind must be 'heterogeneous'")
    data = Featurized.of(featurizer, train, val)

    def job(i: int, method: str):
        cfg = replace(spec.base_config, seed=spec.base_config.seed + i)
        if method == "vanilla":
            return _train_vanilla(data, cfg)[0]
        if method == "coteaching":
            return _train_coteaching(data, cfg, spec.coteach)[0]
        return _train_ceta(data, cfg, spec.ceta)[0]

    jobs = [lambda i=i, m=m: job(i, m) for i, m in enumerate(spec.member_methods)]
    return _collect_survivors(jobs, list(spec.member_methods))


def boosting_subset(n: int, fraction: float, member_seed: int) -> np.ndarray:
    """Sorted positions of one member's training subset (no replacement)."""
    size = round(fraction * n)
    if size < 1:
        raise ValidationError(f"subset fraction {fraction} of {n} instances "
                              "is smaller than one batch")
    rng = derive_rng(member_seed, "boosting-subset")
    return np.sort(rng.choice(n, size=size, replace=False))


def train_boosting(train: Dataset, val: Dataset, spec: EnsembleSpec,
                   featurizer: Featurizer) -> list[ModelParams]:
    """Vanilla members, each trained on an independent random training subset;
    the validation set is shared."""
    if spec.kind != "boosting":
        raise ValidationError("spec.kind must be 'boosting'")
    seeds = [spec.seed + i for i in range(spec.member_count)]
    data = Featurized.of(featurizer, train, val)

    def job(member_seed: int):
        subset = boosting_subset(len(train), spec.subset_fraction, member_seed)
        cfg = replace(spec.base_config, seed=member_seed)
        return _train_vanilla(data.rows(subset), cfg)[0]

    jobs = [lambda s=s: job(s) for s in seeds]
    return _collect_survivors(jobs, [f"seed{s}" for s in seeds])


@dataclass
class EnsemblePredictions:
    """Per-member and averaged probabilities for one evaluated dataset."""

    member_probs: np.ndarray  # members x instances x classes
    averaged: np.ndarray      # instances x classes
    predicted: np.ndarray     # instances


def predict_ensemble(members: list[ModelParams], dataset: Dataset,
                     featurizer: Featurizer) -> tuple[float, EnsemblePredictions]:
    """Arithmetic mean of member probabilities; argmax ties go to the lowest
    label index. Accuracy is measured against the dataset's observed labels
    (use a clean test split for headline numbers)."""
    if not members:
        raise ValidationError("need at least one ensemble member")
    k = len(dataset.label_set)
    for i, member in enumerate(members):
        if member.n_labels != k:
            raise ValidationError(
                f"member {i} predicts {member.n_labels} labels, dataset has {k}")
    return _predict_features(members, featurize_dataset(featurizer, dataset),
                             dataset.observed())


def _predict_features(members: list[ModelParams], x, y: np.ndarray
                      ) -> tuple[float, EnsemblePredictions]:
    member_probs = np.stack([predict_probs(m, x, head="averaged")
                             for m in members])
    averaged = member_probs.mean(axis=0)
    predicted = averaged.argmax(axis=1)
    accuracy = float(np.mean(predicted == y))
    return accuracy, EnsemblePredictions(member_probs, averaged, predicted)


# ---------------------------------------------------------------------------
# Manifests: enough on disk to re-run predict_ensemble later
# ---------------------------------------------------------------------------


def save_ensemble(directory: str | Path, featurizer: Featurizer,
                  members: list[ModelParams],
                  methods: list[str] | None = None,
                  configs: list[TrainConfig] | None = None,
                  seeds: list[int] | None = None) -> Path:
    """Write member checkpoints plus a manifest (method, config, seed,
    checkpoint path per member) sufficient to re-run prediction later."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, member in enumerate(members):
        name = f"member{i:02d}.ckpt"
        save_model(directory / name, featurizer, member)
        entries.append({
            "method": methods[i] if methods else "vanilla",
            "config": configs[i].__dict__ if configs else None,
            "seed": seeds[i] if seeds else None,
            "checkpoint": name,
        })
    manifest = directory / "ensemble.json"
    manifest.write_text(json.dumps({"version": 1, "members": entries}, indent=2),
                        encoding="utf-8")
    return manifest


def load_ensemble(manifest_path: str | Path) -> tuple[Featurizer, list[ModelParams]]:
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_bytes())
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read manifest {manifest_path}: {exc}") from None
    entries = manifest.get("members") if isinstance(manifest, dict) else None
    if not isinstance(entries, list) or not entries or manifest.get("version") != 1:
        raise ValidationError("unsupported or empty ensemble manifest")
    if not all(isinstance(e, dict) and isinstance(e.get("checkpoint"), str)
               for e in entries):
        raise ValidationError("every manifest member needs a 'checkpoint' file name")
    loaded = [load_model(manifest_path.parent / e["checkpoint"]) for e in entries]
    if any(feat != loaded[0][0] for feat, _ in loaded):
        raise ValidationError("ensemble members disagree on the featurizer")
    return loaded[0][0], [params for _, params in loaded]
