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
    predict_members,
    save_model,
)
from .training import MEMBER_METHODS, CetaConfig, CoteachSchedule, Featurized, _train
from .util import derive_rng

logger = logging.getLogger(__name__)

ENSEMBLE_KINDS = ("homogeneous", "heterogeneous", "boosting")


@dataclass(frozen=True)
class GridLists:
    """Value lists sampled when building homogeneous-ensemble configs."""

    steps: tuple[int, ...]
    learning_rate: tuple[float, ...]
    patience: tuple[int, ...]
    warmup_steps: tuple[int, ...]
    weight_decay: tuple[float, ...]
    drop_rate: tuple[float, ...]


# sized for the built-in hashed n-gram model; the harness's hme samples it
COMPACT_GRID = GridLists(
    steps=(400, 600, 800, 1000),
    learning_rate=(0.25, 0.35, 0.5, 0.7),
    patience=(6, 8, 10),
    warmup_steps=(0, 10, 25),
    weight_decay=(1e-4, 1e-3),
    drop_rate=(0.0, 0.1, 0.2),
)


def _grid_pairs(lists: GridLists, m: int) -> list[tuple[int, float]]:
    """The grid's (steps, learning_rate) pairs, if m members can each take one."""
    pairs = list(itertools.product(lists.steps, lists.learning_rate))
    if m < 1 or m > len(pairs):
        raise ValidationError(
            f"member count {m} must be in [1, {len(pairs)}] for this grid")
    return pairs


def sample_grid_configs(lists: GridLists, m: int, seed: int,
                        base: TrainConfig) -> list[TrainConfig]:
    """m configs cycling the grid, guaranteed distinct (steps, lr) pairs,
    with member seeds base.seed, base.seed+1, ...

    The (steps, learning_rate) pair is sampled without replacement; the
    remaining fields are drawn independently per member.
    """
    pairs = _grid_pairs(lists, m)
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
    member_count defaults to the grid or method-list length (boosting: 1);
    a count that differs from that length is rejected.
    """

    kind: str
    member_count: int | None = None
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
        listed = ()
        if self.kind == "homogeneous":
            if not self.hyperparameter_grid:
                raise ValidationError("homogeneous ensembles need a config grid")
            listed = tuple(self.hyperparameter_grid)
            object.__setattr__(self, "hyperparameter_grid", listed)
        if self.kind == "heterogeneous":
            if not self.member_methods:
                raise ValidationError("heterogeneous ensembles need member_methods")
            listed = tuple(self.member_methods)
            object.__setattr__(self, "member_methods", listed)
            bad = set(listed) - set(MEMBER_METHODS)
            if bad:
                raise ValidationError(f"unknown member methods: {sorted(bad)}")
        if self.kind == "boosting" and not 0.0 < self.subset_fraction <= 1.0:
            raise ValidationError("subset_fraction must be in (0, 1]")
        if self.member_count is None:
            object.__setattr__(self, "member_count", len(listed) or 1)
        if self.member_count < 1 or listed and self.member_count != len(listed):
            raise ValidationError("member_count must be >= 1 and equal the "
                                  "grid or method-list length")


def _member_plan(spec: EnsembleSpec, n_train: int):
    """(label, method, config, training rows or None for all) per member."""
    if spec.kind == "homogeneous":
        return [(f"member{i}", "vanilla", cfg, None)
                for i, cfg in enumerate(spec.hyperparameter_grid)]
    base = spec.base_config
    if spec.kind == "heterogeneous":
        return [(m, m, replace(base, seed=base.seed + i), None)
                for i, m in enumerate(spec.member_methods)]
    return [(f"seed{s}", "vanilla", replace(base, seed=s),
             boosting_subset(n_train, spec.subset_fraction, s))
            for s in range(spec.seed, spec.seed + spec.member_count)]


def _train_members(train: Dataset, val: Dataset, spec: EnsembleSpec,
                   featurizer: Featurizer, kind: str) -> list[ModelParams]:
    """Train spec's members in order, dropping any that diverge; at least one
    must survive."""
    if spec.kind != kind:
        raise ValidationError(f"spec.kind must be {kind!r}")
    data = Featurized.of(featurizer, train, val)
    members: list[ModelParams] = []
    failures: list[str] = []
    for label, method, cfg, rows in _member_plan(spec, len(train)):
        try:
            nets, _ = _train(method, data if rows is None else data.rows(rows),
                             cfg, spec.coteach, spec.ceta)
            members.append(nets[0])
        except MethodError as exc:
            failures.append(f"{label}: {exc}")
            logger.warning("ensemble member %s failed: %s", label, exc)
    if not members:
        raise MethodError("every ensemble member failed: " + "; ".join(failures))
    return members


def train_homogeneous(train: Dataset, val: Dataset, spec: EnsembleSpec,
                      featurizer: Featurizer) -> list[ModelParams]:
    """One vanilla run per grid config, all on the full training set."""
    return _train_members(train, val, spec, featurizer, "homogeneous")


def train_heterogeneous(train: Dataset, val: Dataset, spec: EnsembleSpec,
                        featurizer: Featurizer) -> list[ModelParams]:
    """One member per method; co-teaching contributes its first network and
    consensus-trained members contribute head-averaged probabilities."""
    return _train_members(train, val, spec, featurizer, "heterogeneous")


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
    return _train_members(train, val, spec, featurizer, "boosting")


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
    if x.shape[0] == 0:
        raise ValidationError("cannot evaluate an empty dataset")
    member_probs = predict_members(members, x)
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
    checkpoint path per member) sufficient to re-run prediction later. No
    members or bad metadata raise ValidationError, and a member with
    non-finite params DivergenceError, before anything is written."""
    if not members:
        raise ValidationError("an ensemble needs at least one member")
    for member in members:
        member.check_finite()
    if any(given is not None and len(given) != len(members)
           for given in (methods, configs, seeds)):
        raise ValidationError("methods, configs and seeds need one entry per member")
    entries = [{
        "method": methods[i] if methods else "vanilla",
        "config": configs[i].__dict__ if configs else None,
        "seed": seeds[i] if seeds else None,
        "checkpoint": f"member{i:02d}.ckpt",
    } for i in range(len(members))]
    try:
        text = json.dumps({"version": 1, "members": entries}, indent=2)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"ensemble manifest cannot be encoded: {exc}") from None
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for entry, member in zip(entries, members):
        save_model(directory / entry["checkpoint"], featurizer, member)
    manifest = directory / "ensemble.json"
    manifest.write_text(text, encoding="utf-8")
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
    # a plain file name, so a manifest reads no file outside its directory
    if not all(isinstance(e, dict) and isinstance(e.get("checkpoint"), str)
               and Path(e["checkpoint"]).name == e["checkpoint"]
               and e["checkpoint"] not in ("", ".", "..") for e in entries):
        raise ValidationError("every manifest member needs a 'checkpoint' file "
                              "name in the manifest's directory")
    loaded = [load_model(manifest_path.parent / e["checkpoint"]) for e in entries]
    if any(feat != loaded[0][0] for feat, _ in loaded):
        raise ValidationError("ensemble members disagree on the featurizer")
    return loaded[0][0], [params for _, params in loaded]
