"""Experiment orchestration: config-driven multi-seed runs, aggregation,
comparison tables and plot-ready CSV emission.

One JSON config file describes dataset, noise, method and hyperparameters;
run_experiment executes `runs` seeded repetitions (noise is regenerated per
run where it is seeded) and reports mean and population standard deviation
of clean-test accuracy. Reports hold no wall-clock time, so re-running a
config reproduces its report byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .cleaning import CleanConfig, clean_dataset, retrain_on_cleaned
from .data import Dataset, SplitSpec, generate_synthetic_corpus, load_dataset, \
    split_dataset
from .ensembles import COMPACT_GRID, EnsembleSpec, _grid_pairs, _predict_features, \
    sample_grid_configs, train_boosting, train_heterogeneous, train_homogeneous
from .errors import MethodError, ValidationError
from .model import Featurizer, TrainConfig, featurize_dataset
from .noise import apply_noise, noise_level, noise_matrix
from .presets import Preset, get_preset
from .training import MEMBER_METHODS, CetaConfig, CoteachSchedule, Featurized, _train
from .util import checked_call

METHODS = MEMBER_METHODS + ("hme", "hte", "boosting", "nc")

# dataset source -> the keys a dataset section naming it may hold
DATASET_KEYS = {"preset": {"preset", "corpus_seed"}, "synthetic": {"synthetic"},
                "path": {"path", "format"}}


@dataclass(frozen=True)
class EnsembleSettings:
    """hme and boosting train `members` members (hme at most one per
    (steps, learning_rate) pair of COMPACT_GRID), and only boosting reads
    subset_fraction; hte always trains one member per MEMBER_METHODS."""

    members: int = 5
    subset_fraction: float = 0.8

    def __post_init__(self):
        if self.members < 1 or not 0.0 < self.subset_fraction <= 1.0:
            raise ValidationError("ensemble 'members' must be >= 1" if self.members < 1
                                  else "ensemble 'subset_fraction' must be in (0, 1]")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one table cell of an evaluation."""

    method: str
    dataset: dict
    noise: dict | None = None
    split: dict | None = None
    featurizer: Featurizer = Featurizer()
    train: TrainConfig = TrainConfig()
    coteaching: CoteachSchedule = CoteachSchedule()
    ceta: CetaConfig = CetaConfig()
    ensemble: EnsembleSettings = EnsembleSettings()
    cleaning: CleanConfig = CleanConfig()
    runs: int = 5
    base_seed: int = 0
    noise_validation: bool = True

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"method must be one of {METHODS}")
        if self.runs < 1:
            raise ValidationError("runs must be >= 1")
        if self.method == "hme":  # one COMPACT_GRID pair per member
            _grid_pairs(COMPACT_GRID, self.ensemble.members)
        sources = [s for s in DATASET_KEYS if s in self.dataset] \
            if isinstance(self.dataset, dict) else []
        if len(sources) != 1 or self.dataset.keys() - DATASET_KEYS[sources[0]]:
            raise ValidationError(
                "dataset must name a preset (and optionally a corpus_seed), a "
                "synthetic spec, or a path (and optionally a format), and nothing else")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """The config a JSON object describes; a null value means the
        default. It holds settings only: output paths are the CLI's flags."""
        if not isinstance(raw, dict):
            raise ValidationError("config root must be a JSON object")
        kwargs = {k: v for k, v in raw.items() if v is not None}
        for name, factory in (("featurizer", Featurizer), ("train", TrainConfig),
                              ("coteaching", CoteachSchedule), ("ceta", CetaConfig),
                              ("ensemble", EnsembleSettings), ("cleaning", CleanConfig)):
            if name in kwargs:
                if not isinstance(kwargs[name], dict):
                    raise ValidationError(f"'{name}' must be an object")
                if name in ("train", "cleaning") and "seed" in kwargs[name]:
                    raise ValidationError(f"'{name}' takes no 'seed'; each run's "
                                          "seed is base_seed + its index")
                kwargs[name] = checked_call(factory, kwargs[name], f"'{name}'")
        return checked_call(cls, kwargs, "config")


def _read_json(path: str | Path, what: str):
    """Parsed JSON file; a missing or malformed file raises ValidationError
    naming `what` (say "config")."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"no such {what} file: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# Dataset / noise materialization
# ---------------------------------------------------------------------------


@dataclass
class _Materialized:
    train: Dataset
    val: Dataset
    test: Dataset
    preset: Preset | None


def _preset(cfg: ExperimentConfig) -> Preset | None:
    """The preset cfg's dataset names, or None if it names another source."""
    if "preset" not in cfg.dataset:
        return None
    if cfg.split is not None:
        raise ValidationError("a preset fixes its own split; drop 'split'")
    return checked_call(get_preset, {"name": cfg.dataset["preset"],
                                     "corpus_seed": cfg.dataset.get("corpus_seed")},
                        "'dataset'")


def _materialize(cfg: ExperimentConfig) -> _Materialized:
    """Clean splits, and the preset if the dataset names one."""
    source, preset = cfg.dataset, _preset(cfg)
    if preset is not None:
        train, val, test = preset.clean_splits()
    else:
        if "synthetic" in source:
            spec, names = source["synthetic"], {"classes": "n_classes",
                                                "instances": "n_instances"}
            if not isinstance(spec, dict) or not names.keys() <= spec.keys() \
                    or spec.keys() & set(names.values()):
                raise ValidationError("'synthetic' must be an object with "
                                      "'classes' and 'instances'")
            corpus = checked_call(generate_synthetic_corpus, {
                names.get(k, k): tuple(v) if isinstance(v, list) else v
                for k, v in spec.items()}, "'synthetic'")
        else:
            corpus = checked_call(load_dataset, dict(source), "'dataset'")
        split = cfg.split or {}
        fields = {"train": "train_fraction", "validation": "validation_fraction",
                  "test": "test_fraction", "seed": "seed"}
        if split.keys() - fields.keys():
            raise ValidationError(f"unknown 'split' keys: "
                                  f"{sorted(split.keys() - fields.keys())}")
        train, val, test = split_dataset(corpus, checked_call(
            SplitSpec, {fields[k]: v for k, v in split.items()}, "'split'"))
    if len(test) == 0:
        raise ValidationError("the test split is empty; headline evaluation "
                              "needs a clean test split")
    if test.has_gold() and (test.observed() != test.gold()).any():
        raise ValidationError("test split carries label noise; headline "
                              "evaluation requires a clean test split")
    return _Materialized(train, val, test, preset)


def _apply_noise(mat: _Materialized, cfg: ExperimentConfig, run_seed: int
                 ) -> tuple[Dataset, Dataset]:
    """Noisy (train, validation) for one run. Seeded noise is drawn from the
    run seed for train and from run seed + 1 for validation (noised only when
    cfg.noise_validation), so repetitions aggregate over noising randomness.
    Without a noise section, a preset applies its own rule labeler."""
    labeler = mat.preset.labeler if mat.preset is not None else None
    train = apply_noise(mat.train, cfg.noise, run_seed, labeler)
    val = apply_noise(mat.val, cfg.noise, run_seed + 1, labeler) \
        if cfg.noise_validation else mat.val
    return train, val


# ---------------------------------------------------------------------------
# Experiment execution
# ---------------------------------------------------------------------------


@dataclass
class ExperimentReport:
    """Per-run clean-test accuracies with aggregate statistics."""

    method: str
    per_run: list[dict]
    accuracy_mean: float
    accuracy_std: float
    config: dict
    partial: bool

    def to_json(self) -> str:
        payload = {**asdict(self), "runs": len(self.per_run)}
        return json.dumps(payload, indent=2, sort_keys=True)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")


def _run_method(cfg: ExperimentConfig, mat: _Materialized, train: Dataset,
                val: Dataset, run_seed: int, x_test) -> dict:
    """Train one method for one run and score its model (or ensemble) on the
    clean test split, whose features x_test the caller computed once for all
    runs."""
    tcfg = replace(cfg.train, seed=run_seed)
    feat = cfg.featurizer
    record: dict = {}
    if cfg.method in MEMBER_METHODS:
        nets, _ = _train(cfg.method, Featurized.of(feat, train, val), tcfg,
                         cfg.coteaching, cfg.ceta)
        members = [nets[0]]
    elif cfg.method in ("hme", "hte", "boosting"):
        if cfg.method == "hme":
            grid = sample_grid_configs(COMPACT_GRID, cfg.ensemble.members,
                                       run_seed, tcfg)
            spec = EnsembleSpec(kind="homogeneous", hyperparameter_grid=tuple(grid),
                                seed=run_seed)
            members = train_homogeneous(train, val, spec, feat)
        elif cfg.method == "hte":
            spec = EnsembleSpec(kind="heterogeneous", member_methods=MEMBER_METHODS,
                                base_config=tcfg, coteach=cfg.coteaching,
                                ceta=cfg.ceta, seed=run_seed)
            members = train_heterogeneous(train, val, spec, feat)
        else:
            spec = EnsembleSpec(kind="boosting", member_count=cfg.ensemble.members,
                                subset_fraction=cfg.ensemble.subset_fraction,
                                base_config=tcfg, seed=run_seed)
            members = train_boosting(train, val, spec, feat)
        record["n_members"] = len(members)
    else:  # nc: a tuned pass returns its winning candidate's model, the
        # retrained model; a fixed threshold retrains on the cleaned set
        cleaned, report, _, params = clean_dataset(
            train, replace(cfg.cleaning, seed=run_seed), tcfg, feat, val)
        if params is None:
            params = retrain_on_cleaned(cleaned, val, tcfg, feat)
        members = [params]
        record.update({
            "threshold_used": report.threshold_used,
            "cleaned_size": len(cleaned),
            "noise_before": report.noise_before,
            "noise_after": report.noise_after,
        })
    record["accuracy"], _ = _predict_features(members, x_test, mat.test.observed())
    record["seed"] = run_seed
    if train.has_gold():
        record["train_noise_level"] = noise_level(train)
    return record


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute cfg.runs seeded repetitions and aggregate accuracy.

    Run r uses seed base_seed + r for training and for regenerating seeded
    noise. A run whose method fails (MethodError) is recorded and the report
    marked partial, without aborting the remaining runs; any other exception
    propagates. The test split is featurized once for all runs; a tuned nc
    run trains the fold models and one model per threshold candidate (5 + 9
    with the defaults) and reuses the winner as the retrained model.
    """
    return _experiment(cfg, _materialize(cfg))


def _experiment(cfg: ExperimentConfig, mat: _Materialized) -> ExperimentReport:
    """run_experiment over mat, the splits of cfg's dataset and split."""
    x_test = featurize_dataset(cfg.featurizer, mat.test)
    per_run = []
    for run_seed in range(cfg.base_seed, cfg.base_seed + cfg.runs):
        try:
            train, val = _apply_noise(mat, cfg, run_seed)
            per_run.append(_run_method(cfg, mat, train, val, run_seed, x_test))
        except MethodError as exc:
            per_run.append({"seed": run_seed,
                            "error": f"{type(exc).__name__}: {exc}"})
    accuracies = [r["accuracy"] for r in per_run if "accuracy" in r]
    if not accuracies:
        first_error = next(r["error"] for r in per_run if "error" in r)
        raise MethodError(f"every run failed; first error: {first_error}")
    return ExperimentReport(
        method=cfg.method,
        per_run=per_run,
        accuracy_mean=float(np.mean(accuracies)),
        accuracy_std=float(np.std(accuracies)),
        config=asdict(cfg),
        partial=len(accuracies) < cfg.runs,
    )


# ---------------------------------------------------------------------------
# Method comparison tables
# ---------------------------------------------------------------------------


def _noise_label(cfg: ExperimentConfig) -> str:
    noise = cfg.noise
    if noise is None:
        return "preset" if "preset" in cfg.dataset else "none"
    kind = noise.get("kind", "none")
    if kind in ("uniform_random", "pseudo_real_world"):
        return f"{kind} {100 * noise.get('level', 0.0):g}%"
    return kind


@dataclass
class ComparisonTable:
    """Methods as rows, noise settings as columns, 'mean ± std' cells."""

    rows: list[str]
    columns: list[str]
    cells: dict[tuple[str, str], str]

    def _grid(self, empty: str) -> list[list[str]]:
        return [["method", *self.columns]] + [
            [row] + [self.cells.get((row, col), empty) for col in self.columns]
            for row in self.rows]

    def to_csv(self) -> str:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(self._grid(""))
        return buf.getvalue()

    def to_text(self) -> str:
        table = self._grid("-")
        widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
                 for r in table]
        return "\n".join(lines) + "\n"


def _format_cell(report: ExperimentReport) -> str:
    return f"{100 * report.accuracy_mean:.2f} ± {100 * report.accuracy_std:.2f}"


def compare_methods(cfgs: list[ExperimentConfig]
                    ) -> tuple[ComparisonTable, list[ExperimentReport]]:
    """Run each config and arrange results as methods x noise settings.

    All configs share one dataset section, materialized once. The dataset,
    every config's first-run noise and the uniqueness of each (method, noise
    label) cell are checked before the first model trains. The first row is
    vanilla on clean data, the ceiling, and the first report is its report.
    """
    if not cfgs:
        raise ValidationError("compare_methods needs at least one config")
    first = cfgs[0]
    for cfg in cfgs[1:]:
        if cfg.dataset != first.dataset or cfg.split != first.split:
            raise ValidationError("all compared configs must share the dataset")
    mat = _materialize(first)
    for cfg in cfgs:
        _apply_noise(mat, cfg, cfg.base_seed)
    keys = [(cfg.method, _noise_label(cfg)) for cfg in cfgs]
    if len(set(keys)) < len(keys):
        method, label = max(keys, key=keys.count)
        raise ValidationError(f"two compared configs are both {method} at {label}")
    clean_row = "vanilla (clean data)"
    reports = [_experiment(cfg, mat) for cfg in
               [replace(first, method="vanilla", noise={"kind": "none"}), *cfgs]]
    rows = [clean_row, *dict.fromkeys(row for row, _ in keys)]
    columns = list(dict.fromkeys(col for _, col in keys))
    cells = {(clean_row, col): _format_cell(reports[0]) for col in columns}
    cells.update((key, _format_cell(r)) for key, r in zip(keys, reports[1:]))
    return ComparisonTable(rows, columns, cells), reports


# ---------------------------------------------------------------------------
# Plot data (CSV series; rendering is left to external tools)
# ---------------------------------------------------------------------------


def threshold_sweep_csv(diagnostics) -> str:
    """Threshold-tuning curve as CSV: threshold, cleaned_size, val_accuracy."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["threshold", "cleaned_size", "val_accuracy"])
    for diag in diagnostics:
        writer.writerow([repr(float(diag.threshold)), diag.cleaned_size,
                         "" if diag.val_accuracy is None
                         else repr(float(diag.val_accuracy))])
    return buf.getvalue()


def noise_matrices_csv(before: Dataset, after: Dataset) -> str:
    """Gold-vs-observed count matrices before and after cleaning, stacked."""
    parts = []
    for tag, d in (("before", before), ("after", after)):
        parts.append(f"# {tag}\n{noise_matrix(d).to_csv()}")
    return "\n".join(parts)
