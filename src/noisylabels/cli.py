"""Command-line interface.

Subcommands: gen, noise, train, clean, ensemble, compare, plotdata.
Exit codes: 0 success, 1 validation or file-system error, 2 method failure.
A JSON experiment config (see README) can drive train/clean/ensemble/compare;
its runs, folds, threshold candidates and ensemble members run in order.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .cleaning import _clean_pass
from .data import generate_synthetic_corpus, load_dataset, save_dataset
from .errors import NoisyLabelsError, ValidationError
from .harness import ExperimentConfig, _apply_noise, _materialize, _read_json, \
    compare_methods, noise_matrices_csv, run_experiment, threshold_sweep_csv
from .noise import apply_noise, noise_level, noise_matrix
from .presets import PRESET_NAMES, get_preset


def _cmd_gen(args) -> int:
    if args.preset:
        preset = get_preset(args.preset, args.corpus_seed)
        train, val, test = preset.clean_splits()
        out_dir = Path(args.out_dir or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, split in (("train", train), ("validation", val), ("test", test)):
            save_dataset(split, out_dir / f"{name}.{args.format}", args.format)
        print(f"wrote {len(train)}/{len(val)}/{len(test)} instances to {out_dir}")
        return 0
    corpus = generate_synthetic_corpus(
        args.classes, args.instances, args.vocab_per_class, args.overlap,
        seed=args.seed, tokens_per_text=(args.min_tokens, args.max_tokens),
        global_token_fraction=args.global_token_fraction,
        annotators_per_instance=args.annotators)
    out = Path(args.out or f"corpus.{args.format}")
    save_dataset(corpus, out, args.format)
    print(f"wrote {len(corpus)} instances, {args.classes} classes to {out}")
    return 0


def _cmd_noise(args) -> int:
    dataset = load_dataset(args.infile, args.format)
    if args.kind != "feature_dependent":
        noise = {"kind": args.kind, "level": args.level}
    elif args.rules:
        noise = {"kind": args.kind, "rules": _read_json(args.rules, "rules"),
                 "fallback": args.fallback, "seed": args.seed}
    else:
        raise ValidationError("feature_dependent noise needs --rules FILE")
    noised = apply_noise(dataset, noise, args.seed)
    save_dataset(noised, args.out, args.format)
    level = noise_level(noised) if noised.has_gold() else None
    if level is not None:
        print(f"measured noise level: {level:.4f}")
    if args.matrix_out:
        noise_matrix(noised).save(args.matrix_out)
    print(f"wrote noised dataset to {args.out}")
    return 0


def _report_summary(report) -> str:
    return (f"{report.method}: accuracy {100 * report.accuracy_mean:.2f} "
            f"± {100 * report.accuracy_std:.2f} over {len(report.per_run)} runs"
            + (" (partial)" if report.partial else ""))


def _check_file(out) -> None:
    """Raise ValidationError unless out is empty or a file path that can be
    written: not a directory, and in a directory that exists."""
    if out and (not isinstance(out, str) or "\0" in out):
        raise ValidationError("'output' must be a file path")
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


def _load_cli_config(args) -> tuple[ExperimentConfig, dict]:
    raw = _read_json(args.config, "config")
    cfg = ExperimentConfig.from_dict(raw)
    if getattr(args, "method", None) is not None:
        cfg = replace(cfg, method=args.method)
    if getattr(args, "runs", None) is not None:
        cfg = replace(cfg, runs=args.runs)
    return cfg, raw


def _cmd_train(args, ensemble_only: bool = False) -> int:
    cfg, raw = _load_cli_config(args)
    if ensemble_only and cfg.method not in ("hme", "hte", "boosting"):
        raise ValidationError("ensemble subcommand needs method hme, hte or "
                              f"boosting (got {cfg.method!r})")
    out = args.out or raw.get("output")
    _check_file(out)
    report = run_experiment(cfg)
    if out:
        report.save(out)
        print(f"report written to {out}")
    print(_report_summary(report))
    return 0


def _clean_from_config(cfg: ExperimentConfig, **cleaning):
    """The config's noised train split, and one cleaning pass over that
    split with the config's cleaning section updated by cleaning."""
    mat = _materialize(cfg)
    train, val = _apply_noise(mat, cfg, cfg.base_seed)
    ccfg = replace(cfg.cleaning, seed=cfg.base_seed, **cleaning)
    tcfg = replace(cfg.train, seed=cfg.base_seed)
    cleaned, report, diagnostics, _ = _clean_pass(train, val, ccfg, tcfg,
                                                  cfg.featurizer)
    return train, cleaned, report, diagnostics


def _cmd_clean(args) -> int:
    cfg, raw = _load_cli_config(args)
    out_dir = _checked_dir(args.out_dir or raw.get("output") or "cleaning_out")
    train, cleaned, report, diagnostics = _clean_from_config(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    if diagnostics is not None:
        (out_dir / "threshold_sweep.csv").write_text(
            threshold_sweep_csv(diagnostics), encoding="utf-8")
        print(f"tuned threshold: {report.threshold_used}")
    save_dataset(cleaned, out_dir / "cleaned.jsonl", "jsonl")
    report.save(out_dir / "cleaning_report.json")
    if train.has_gold():
        (out_dir / "noise_matrices.csv").write_text(
            noise_matrices_csv(train, cleaned), encoding="utf-8")
        print(f"noise level {report.noise_before:.4f} -> {report.noise_after:.4f}")
    print(f"kept {len(cleaned)}/{len(train)} instances; outputs in {out_dir}")
    return 0


def _cmd_ensemble(args) -> int:
    return _cmd_train(args, ensemble_only=True)


def _cmd_compare(args) -> int:
    raw = _read_json(args.config, "config")
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")
    experiments = raw.get("experiments")
    if not isinstance(experiments, list) \
            or not all(isinstance(exp, dict) for exp in experiments):
        raise ValidationError("compare config needs an 'experiments' list of "
                              "objects")
    shared = {k: v for k, v in raw.items() if k not in ("experiments", "output")}
    cfgs = [ExperimentConfig.from_dict({**shared, **exp}) for exp in experiments]
    out = args.out or raw.get("output")
    _check_file(out)
    table, _ = compare_methods(cfgs, include_clean_baseline=not args.no_clean_row)
    if out:
        Path(out).write_text(table.to_csv(), encoding="utf-8")
        print(f"CSV written to {out}")
    print(table.to_text(), end="")
    return 0


def _accuracy_runs_csv(report) -> str:
    per_run = report.get("per_run", []) if isinstance(report, dict) else None
    if not isinstance(per_run, list) \
            or not all(isinstance(run, dict) for run in per_run):
        raise ValidationError("report must be an object with a 'per_run' list "
                              "of objects")
    lines = ["run,seed,accuracy"]
    for i, run in enumerate(per_run):
        if "accuracy" in run:
            if "seed" not in run:
                raise ValidationError(f"report run {i} has an accuracy but no seed")
            lines.append(f"{i},{run['seed']},{run['accuracy']!r}")
    return "\n".join(lines) + "\n"


def _cmd_plotdata(args) -> int:
    if not (args.config or args.report):
        raise ValidationError("plotdata needs --config and/or --report")
    # every input and the output directory are checked before any work, and
    # the directory is made only after the work
    out_dir = _checked_dir(args.out_dir or "plot_data")
    accuracy_runs = (_accuracy_runs_csv(_read_json(args.report, "report"))
                     if args.report else None)
    outputs = {}
    if args.config:
        # the sweep is always tuned, even when the config fixes a threshold
        cfg, _ = _load_cli_config(args)
        train, cleaned, _, diagnostics = _clean_from_config(cfg, threshold=None)
        outputs["threshold_sweep.csv"] = threshold_sweep_csv(diagnostics)
        if train.has_gold():
            outputs["noise_matrices.csv"] = noise_matrices_csv(train, cleaned)
    if accuracy_runs is not None:
        outputs["accuracy_runs.csv"] = accuracy_runs
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in outputs.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    print(f"wrote {', '.join(outputs)} to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisylabels",
        description="Label-noise injection, noise-robust training, ensembles "
                    "and loss-threshold noise cleaning for text classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic corpus")
    gen.add_argument("--preset", choices=PRESET_NAMES)
    gen.add_argument("--corpus-seed", type=int, default=None)
    gen.add_argument("--out-dir", help="split output directory (preset mode)")
    gen.add_argument("--classes", type=int, default=5)
    gen.add_argument("--instances", type=int, default=2000)
    gen.add_argument("--vocab-per-class", type=int, default=40)
    gen.add_argument("--overlap", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--min-tokens", type=int, default=8)
    gen.add_argument("--max-tokens", type=int, default=14)
    gen.add_argument("--global-token-fraction", type=float, default=0.0)
    gen.add_argument("--annotators", type=int, default=0)
    gen.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl")
    gen.add_argument("--out")
    gen.set_defaults(fn=_cmd_gen)

    noise = sub.add_parser("noise", help="apply a noise process to a corpus")
    noise.add_argument("--in", dest="infile", required=True)
    noise.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl")
    noise.add_argument("--kind", required=True,
                       choices=("uniform_random", "feature_dependent",
                                "pseudo_real_world"))
    noise.add_argument("--level", type=float, default=0.0)
    noise.add_argument("--seed", type=int, default=0)
    noise.add_argument("--rules", help="JSON file of {keywords, label} rules")
    noise.add_argument("--fallback", choices=("abstain", "random"),
                       default="abstain")
    noise.add_argument("--out", required=True)
    noise.add_argument("--matrix-out")
    noise.set_defaults(fn=_cmd_noise)

    for name, fn, helptext in (
            ("train", _cmd_train, "run one method as a seeded experiment"),
            ("ensemble", _cmd_ensemble, "run an ensemble experiment")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True)
        p.add_argument("--method")
        p.add_argument("--runs", type=int)
        p.add_argument("--out")
        p.set_defaults(fn=fn)

    clean = sub.add_parser("clean", help="tune, clean and export a training set")
    clean.add_argument("--config", required=True)
    clean.add_argument("--out-dir")
    clean.set_defaults(fn=_cmd_clean)

    comp = sub.add_parser("compare", help="method-by-noise comparison table")
    comp.add_argument("--config", required=True)
    comp.add_argument("--out")
    comp.add_argument("--no-clean-row", action="store_true")
    comp.set_defaults(fn=_cmd_compare)

    plot = sub.add_parser("plotdata", help="emit plot-ready CSV series")
    plot.add_argument("--config")
    plot.add_argument("--report")
    plot.add_argument("--out-dir")
    plot.set_defaults(fn=_cmd_plotdata)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # output file flags are checked before any work or write; the
        # commands check the outputs a config names the same way
        for out in (getattr(args, "out", None), getattr(args, "matrix_out", None)):
            _check_file(out)
        return args.fn(args)
    except (ValidationError, OSError) as exc:  # OSError: an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NoisyLabelsError as exc:
        print(f"method failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
