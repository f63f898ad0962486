"""Command-line interface.

Subcommands: gen, noise, train, clean, compare, plotdata.
Exit codes: 0 success, 1 usage, validation or file-system error, 2 method
failure. A JSON experiment config (see README) holds every experiment
setting, and flags name only files. The config drives gen (the clean splits
of its dataset), noise (the noise train's first run puts on its training
split, applied to one corpus file), train (every method, ensembles
included), clean (every cleaning output) and compare (a methods-by-noise
table whose first row is always vanilla on clean data); its runs, folds,
threshold candidates and ensemble members run in order. plotdata turns a
train report into a CSV.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .cleaning import clean_dataset
from .data import _save_splits, load_dataset, save_dataset
from .errors import NoisyLabelsError, ValidationError
from .harness import ExperimentConfig, _apply_noise, _materialize, _preset, \
    _read_json, compare_methods, noise_matrices_csv, run_experiment, \
    threshold_sweep_csv
from .noise import apply_noise, noise_level, noise_matrix
from .util import _conforms


def _cmd_noise(args) -> int:
    cfg = _load_cli_config(args)
    preset = _preset(cfg)
    noised = apply_noise(load_dataset(args.infile, args.format), cfg.noise,
                         cfg.base_seed, preset.labeler if preset else None)
    # the level and the matrix can fail (no gold, no rows), so both are
    # computed before anything is written
    level = noise_level(noised) if noised.has_gold() else None
    matrix = noise_matrix(noised) if args.matrix_out else None
    save_dataset(noised, args.out, args.format)
    if level is not None:
        print(f"measured noise level: {level:.4f}")
    if matrix is not None:
        matrix.save(args.matrix_out)
    print(f"wrote noised dataset to {args.out}")
    return 0


def _report_summary(report) -> str:
    return (f"{report.method}: accuracy {100 * report.accuracy_mean:.2f} "
            f"± {100 * report.accuracy_std:.2f} over {len(report.per_run)} runs"
            + (" (partial)" if report.partial else ""))


def _check_file(out: str | None) -> None:
    """Raise ValidationError unless out is None or a file path that can be
    written: no NUL byte, not a directory, and in a directory that exists."""
    if out and "\0" in out:
        raise ValidationError(f"output file {out!r} holds a NUL byte")
    if out and (Path(out).is_dir() or not Path(out).parent.is_dir()):
        raise ValidationError(f"output file {out} is a directory or its "
                              "directory does not exist")


def _checked_dir(out: str) -> Path:
    """Path(out), after raising ValidationError if it, or its nearest
    ancestor that exists, is not a directory."""
    path = Path(out)
    nearest = next((p for p in (path, *path.parents) if p.exists()), path)
    if "\0" in out or not nearest.is_dir():
        raise ValidationError(f"output directory {out!r} is not a directory "
                              "or lies under a file")
    return path


def _load_cli_config(args) -> ExperimentConfig:
    return ExperimentConfig.from_dict(_read_json(args.config, "config"))


def _cmd_gen(args) -> int:
    cfg = _load_cli_config(args)
    out_dir = _checked_dir(args.out_dir or ".")
    mat = _materialize(cfg)
    _save_splits({"train": mat.train, "validation": mat.val, "test": mat.test},
                 out_dir, args.format)
    print(f"wrote {len(mat.train)}/{len(mat.val)}/{len(mat.test)} instances "
          f"to {out_dir}")
    return 0


def _cmd_train(args) -> int:
    report = run_experiment(_load_cli_config(args))
    if args.out:
        report.save(args.out)
        print(f"report written to {args.out}")
    print(_report_summary(report))
    return 0


def _cmd_clean(args) -> int:
    cfg = _load_cli_config(args)
    out_dir = _checked_dir(args.out_dir or "cleaning_out")
    train, val = _apply_noise(_materialize(cfg), cfg, cfg.base_seed)
    cleaned, report, diagnostics, _ = clean_dataset(
        train, replace(cfg.cleaning, seed=cfg.base_seed),
        replace(cfg.train, seed=cfg.base_seed), cfg.featurizer, val)
    # the cleaned set is encoded before out_dir is made, so a set that
    # cannot be saved leaves nothing behind
    _save_splits({"cleaned": cleaned}, out_dir, "jsonl")
    if diagnostics is not None:
        (out_dir / "threshold_sweep.csv").write_text(
            threshold_sweep_csv(diagnostics), encoding="utf-8")
        print(f"tuned threshold: {report.threshold_used}")
    report.save(out_dir / "cleaning_report.json")
    if train.has_gold():
        (out_dir / "noise_matrices.csv").write_text(
            noise_matrices_csv(train, cleaned), encoding="utf-8")
        print(f"noise level {report.noise_before:.4f} -> {report.noise_after:.4f}")
    print(f"kept {len(cleaned)}/{len(train)} instances; outputs in {out_dir}")
    return 0


def _compare_configs(raw) -> list[ExperimentConfig]:
    """One config per cell of a compare config: its keys other than
    'experiments', updated by the cell's own keys."""
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")
    experiments = raw.get("experiments")
    if not isinstance(experiments, list) \
            or not all(isinstance(exp, dict) for exp in experiments):
        raise ValidationError("compare config needs an 'experiments' list of "
                              "objects")
    shared = {k: v for k, v in raw.items() if k != "experiments"}
    return [ExperimentConfig.from_dict({**shared, **exp}) for exp in experiments]


def _cmd_compare(args) -> int:
    table, _ = compare_methods(_compare_configs(_read_json(args.config, "config")))
    if args.out:
        Path(args.out).write_text(table.to_csv(), encoding="utf-8")
        print(f"CSV written to {args.out}")
    print(table.to_text(), end="")
    return 0


def _accuracy_runs_csv(report) -> str:
    """One row per run with an accuracy, a finite number, and an int seed."""
    per_run = report.get("per_run") if isinstance(report, dict) else None
    if not isinstance(per_run, list) \
            or not all(isinstance(run, dict) for run in per_run):
        raise ValidationError("report must be an object with a 'per_run' list "
                              "of objects")
    lines = ["run,seed,accuracy"]
    for i, run in enumerate(per_run):
        if "accuracy" in run:
            seed, accuracy = run.get("seed"), run["accuracy"]
            if not (_conforms(seed, int) and _conforms(accuracy, float)
                    and abs(accuracy) < float("inf")):
                raise ValidationError(f"report run {i} needs a finite numeric "
                                      "accuracy and an integer seed")
            lines.append(f"{i},{seed},{accuracy!r}")
    return "\n".join(lines) + "\n"


def _cmd_plotdata(args) -> int:
    # the output directory and the report are checked before the directory
    # is made
    out_dir = _checked_dir(args.out_dir or "plot_data")
    accuracy_runs = _accuracy_runs_csv(_read_json(args.report, "report"))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "accuracy_runs.csv").write_text(accuracy_runs, encoding="utf-8")
    print(f"wrote accuracy_runs.csv to {out_dir}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, not 2 (method failure), and a flag is named in
    full, so a removed flag is not read as a longer one (--out as --out-dir);
    subparsers share the class."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="noisylabels",
        description="Label-noise injection, noise-robust training, ensembles "
                    "and loss-threshold noise cleaning for text classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write the clean splits of a config's "
                                     "dataset")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out-dir")
    gen.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl")
    gen.set_defaults(fn=_cmd_gen)

    noise = sub.add_parser("noise", help="apply a config's noise to a corpus "
                                         "file")
    noise.add_argument("--config", required=True)
    noise.add_argument("--in", dest="infile", required=True)
    noise.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl")
    noise.add_argument("--out", required=True)
    noise.add_argument("--matrix-out")
    noise.set_defaults(fn=_cmd_noise)

    train = sub.add_parser("train", help="run one method, an ensemble "
                                         "included, as a seeded experiment")
    train.add_argument("--config", required=True)
    train.add_argument("--out")
    train.set_defaults(fn=_cmd_train)

    clean = sub.add_parser("clean", help="tune, clean and export a training set")
    clean.add_argument("--config", required=True)
    clean.add_argument("--out-dir")
    clean.set_defaults(fn=_cmd_clean)

    comp = sub.add_parser("compare", help="method-by-noise comparison table")
    comp.add_argument("--config", required=True)
    comp.add_argument("--out")
    comp.set_defaults(fn=_cmd_compare)

    plot = sub.add_parser("plotdata", help="write a report's per-run "
                                           "accuracies as CSV")
    plot.add_argument("--report", required=True)
    plot.add_argument("--out-dir")
    plot.set_defaults(fn=_cmd_plotdata)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # output file flags are checked before any work or write; each
        # command checks its output directory flag the same way
        for out in (getattr(args, "out", None), getattr(args, "matrix_out", None)):
            _check_file(out)
        return args.fn(args)
    # OSError: an unwritable output; MemoryError and OverflowError: a size
    # setting too large to allocate or to hold in a C integer
    except (ValidationError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NoisyLabelsError as exc:
        print(f"method failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
