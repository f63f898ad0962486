"""N-fold loss-based noise cleaning: fine-tune on each fold's complement,
score the held-out fold by per-instance loss, drop everything at or above a
threshold, and retrain on what survives, all in one clean_dataset pass.

The selection path never looks at gold labels; gold is only used afterwards
to report noise levels before and after cleaning when it happens to exist.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import EmptyCleanedSetError, ValidationError
from .model import Featurizer, ModelParams, TrainConfig, evaluate_features, \
    instance_losses
from .noise import noise_level
from .training import Featurized, _train, train_vanilla
from .util import derive_rng, stable_hash

DEFAULT_TUNING_QUANTILES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class CleanConfig:
    """Fold count, loss threshold (None = tune it) and tuning grid.

    tuning_grid takes absolute thresholds; when it is None the grid is built
    from tuning_quantiles of the observed held-out loss distribution.
    """

    folds: int = 5
    threshold: float | None = None
    tuning_grid: tuple[float, ...] | None = None
    tuning_quantiles: tuple[float, ...] = DEFAULT_TUNING_QUANTILES
    seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise ValidationError("need at least 2 folds")
        if self.threshold is not None and not (np.isfinite(self.threshold)
                                               and self.threshold >= 0):
            raise ValidationError("threshold must be finite and >= 0")
        if self.tuning_grid is not None:
            object.__setattr__(self, "tuning_grid", tuple(self.tuning_grid))
            if not self.tuning_grid or any(t < 0 or not np.isfinite(t)
                                           for t in self.tuning_grid):
                raise ValidationError("tuning_grid must be non-empty, finite, >= 0")
        object.__setattr__(self, "tuning_quantiles", tuple(self.tuning_quantiles))
        if not self.tuning_quantiles or any(not 0 < q <= 1
                                            for q in self.tuning_quantiles):
            raise ValidationError("tuning_quantiles must lie in (0, 1]")


@dataclass
class CleaningReport:
    """Which instances survived, their held-out losses, and noise accounting."""

    kept_ids: tuple[str, ...]
    removed_ids: tuple[str, ...]
    per_instance_loss: dict[str, float]
    threshold_used: float
    noise_before: float | None
    noise_after: float | None
    fold_of: dict[str, int]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")


def _fold_seed(train_cfg: TrainConfig, fold: int) -> int:
    return stable_hash(f"fold{fold}", train_cfg.seed) % 2**31


def fold_partition(n: int, folds: int, seed: int) -> np.ndarray:
    """Fold index per instance position; folds are disjoint, exhaustive and
    balanced to within one instance."""
    if not 1 <= folds <= n:
        raise ValidationError(f"cannot split {n} instances into {folds} folds")
    order = derive_rng(seed, "folds").permutation(n)
    fold_of = np.empty(n, dtype=np.int64)
    sizes = np.full(folds, n // folds)
    sizes[: n % folds] += 1
    start = 0
    for i, size in enumerate(sizes):
        fold_of[order[start:start + size]] = i
        start += size
    return fold_of


def heldout_losses(data: Featurized, cfg: CleanConfig, train_cfg: TrainConfig
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per-instance evaluation loss from the fold model that held it out,
    and each instance's fold.

    For each fold a fresh vanilla model is trained on the complement (early
    stopping on the experiment's validation set, same as the main runs) and
    scored on the held-out fold. Folds are trained in order, one at a time.
    """
    n = len(data)
    fold_of = fold_partition(n, cfg.folds, cfg.seed)
    losses = np.empty(n, dtype=np.float64)
    for i in range(cfg.folds):
        held = np.flatnonzero(fold_of == i)
        complement = np.flatnonzero(fold_of != i)
        if complement.size < 2:
            raise ValidationError(
                f"fold {i}: training complement of {complement.size} is too small")
        fold_cfg = replace(train_cfg, seed=_fold_seed(train_cfg, i))
        (params,), _ = _train("vanilla", data.rows(complement), fold_cfg)
        losses[held] = instance_losses(params, data.x[held], data.y[held])
        del params  # free this fold's model before the next one trains
    return losses, fold_of


@dataclass(frozen=True)
class ThresholdDiagnostic:
    """One tuning-curve point: candidate threshold, surviving set size, and
    validation accuracy of the model retrained on that survivor set."""

    threshold: float
    cleaned_size: int
    val_accuracy: float | None


def tune_threshold(data: Featurized, losses: np.ndarray, cfg: CleanConfig,
                   train_cfg: TrainConfig
                   ) -> tuple[float, list[ThresholdDiagnostic], ModelParams]:
    """Pick the loss threshold whose cleaned-and-retrained model scores best
    on the (noisy) validation set; ties go to the smaller threshold.

    Returns the threshold, the tuning curve and the winning candidate's
    model. Each candidate that keeps an instance costs one vanilla training
    on the rows whose held-out loss is below it.
    """
    grid = cfg.tuning_grid if cfg.tuning_grid is not None \
        else np.quantile(losses, cfg.tuning_quantiles)
    diagnostics: list[ThresholdDiagnostic] = []
    best_acc, best_threshold, best_params = None, None, None
    for threshold in sorted(float(t) for t in grid):
        kept = np.flatnonzero(losses < threshold)
        acc = None
        if kept.size:
            (params,), _ = _train("vanilla", data.rows(kept), train_cfg)
            acc = evaluate_features(params, data.x_val, data.y_val)
            if best_acc is None or acc > best_acc:  # ties go to the smaller threshold
                best_acc, best_threshold, best_params = acc, threshold, params
            del params  # only the best model so far stays alive
        diagnostics.append(ThresholdDiagnostic(threshold, int(kept.size), acc))
    if best_params is None:
        raise EmptyCleanedSetError("every candidate threshold removed all instances")
    return best_threshold, diagnostics, best_params


def _report(train: Dataset, cleaned: Dataset, losses, fold_of, kept, removed,
            threshold: float) -> CleaningReport:
    ids = [inst.id for inst in train.instances]
    gold = train.has_gold()
    return CleaningReport(
        kept_ids=tuple(ids[i] for i in kept),
        removed_ids=tuple(ids[i] for i in removed),
        per_instance_loss={ids[i]: float(losses[i]) for i in range(len(ids))},
        threshold_used=float(threshold),
        noise_before=noise_level(train) if gold else None,
        noise_after=noise_level(cleaned) if gold else None,
        fold_of={ids[i]: int(fold_of[i]) for i in range(len(ids))},
    )


def clean_dataset(train: Dataset, cfg: CleanConfig, train_cfg: TrainConfig,
                  featurizer: Featurizer, val: Dataset
                  ) -> tuple[Dataset, CleaningReport,
                             list[ThresholdDiagnostic] | None, ModelParams | None]:
    """The cleaning pass: heldout_losses once, then tune_threshold unless
    cfg fixes the threshold, then the cleaned set, in the original instance
    order: (cleaned, report, diagnostics, model).

    For a tuned threshold, diagnostics is the tuning curve and model the
    winning candidate's model, which is the vanilla model trained on the
    cleaned set with train_cfg; for a fixed threshold both are None
    (retrain_on_cleaned trains that model). Raises EmptyCleanedSetError
    rather than returning an empty training set.
    """
    data = Featurized.of(featurizer, train, val)
    losses, fold_of = heldout_losses(data, cfg, train_cfg)
    threshold, diagnostics, model = cfg.threshold, None, None
    if threshold is None:
        threshold, diagnostics, model = tune_threshold(data, losses, cfg, train_cfg)
    kept = np.flatnonzero(losses < threshold)  # strictly below; equality removes
    if kept.size == 0:
        raise EmptyCleanedSetError(
            f"threshold {threshold} removed all {len(train)} instances")
    removed = np.flatnonzero(losses >= threshold)
    cleaned = train.select(kept)
    report = _report(train, cleaned, losses, fold_of, kept, removed, threshold)
    return cleaned, report, diagnostics, model


def retrain_on_cleaned(cleaned: Dataset, val: Dataset, train_cfg: TrainConfig,
                       featurizer: Featurizer) -> ModelParams:
    """Ordinary vanilla training on the cleaned set of a fixed-threshold
    pass; score it with evaluate."""
    if len(cleaned) == 0:
        raise ValidationError("cannot retrain on an empty cleaned set")
    params, _ = train_vanilla(cleaned, val, train_cfg, featurizer)
    return params
