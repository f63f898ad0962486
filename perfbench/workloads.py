"""The benchmark workloads. Each drives the library only through its public
API, from one caller in a closed loop.

A workload has three parts: ``setup(seed, workdir)`` builds its inputs from
the seed, ``run(state)`` makes one pass of the timed part and returns an
``Outcome`` that holds each timed library call as a (kind, seconds) pair,
the same calls in the same order on every pass, and ``check(state,
outcome)`` raises ``CheckFailed`` when an output is wrong. Calls of one kind
do the same amount of work.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import noisylabels as nl
from noisylabels import model as nl_model

REQUESTS = 50
REQUEST_TEXTS = 500
CHECKED_EVERY = 10
# Every training runs exactly STEPS steps: patience counts evaluations, so a
# patience of STEPS never stops a run early. A pass then does the same work
# on every seed, and its time varies only with the host.
STEPS = 150
# nc_yoruba cleans with this many experiment seeds per pass: the noise left
# after cleaning depends on which threshold the tuning picks, and that
# choice swings between two modes from one seed to the next
NC_SEEDS = 2
# the grid must hold one distinct (steps, learning rate) pair per member, so
# one step count needs five learning rates; one drop rate keeps the dropout
# work the same on every seed
FIXED_GRID = replace(nl.COMPACT_GRID, steps=(STEPS,), patience=(STEPS,),
                     learning_rate=(0.25, 0.35, 0.5, 0.6, 0.7), drop_rate=(0.1,))


class CheckFailed(Exception):
    """An output of the library is wrong."""


@dataclass
class Outcome:
    calls: list[tuple[str, float]]
    accuracy: float
    noise_after: float
    texts: int
    attempted: int
    failed: int
    digests: dict[str, str]
    detail: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(seconds for _, seconds in self.calls)


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _failed_runs(report) -> int:
    return sum(1 for r in report.per_run if "error" in r or "accuracy" not in r)


def _check_report(report, label: str) -> None:
    if report.partial or _failed_runs(report):
        raise CheckFailed(f"{label}: failed runs in {report.per_run}")
    if any(r["accuracy"] is None for r in report.per_run):
        raise CheckFailed(f"{label}: a run has no accuracy")


def _fixed_budget(train_cfg: nl.TrainConfig) -> nl.TrainConfig:
    return replace(train_cfg, steps=STEPS, patience=STEPS)


def _preset_inputs(name: str):
    """Clean splits plus rule-noised train/validation, as the harness makes them."""
    preset = nl.get_preset(name)
    train, val, test = preset.clean_splits()
    return preset, nl.inject_rule_noise(train, preset.labeler), \
        nl.inject_rule_noise(val, preset.labeler), test


def _ensemble_members(preset, train, val, grid_lists, seed: int):
    """The harness's hme path: sample a grid, then train one member per config."""
    grid = nl.sample_grid_configs(grid_lists, 5, seed,
                                  replace(preset.train_config, seed=seed))
    spec = nl.EnsembleSpec(kind="homogeneous", member_count=len(grid),
                           hyperparameter_grid=tuple(grid), seed=seed)
    return grid, nl.train_homogeneous(train, val, spec, preset.featurizer)


class NcYoruba:
    name = "nc_yoruba"
    why = ("Tier-1 hot path: 5-fold loss cleaning on yoruba_like, two seeds a pass, "
           "150-step trainings; loads cleaning, vanilla training, featurize; "
           "bypasses ensembles, co-teaching, ceta, checkpoints")

    def setup(self, seed: int, workdir: Path) -> dict:
        preset, train, val, test = _preset_inputs("yoruba_like")
        return {
            "cfgs": [nl.ExperimentConfig(method="nc", dataset={"preset": "yoruba_like"},
                                         runs=1, base_seed=NC_SEEDS * seed + i,
                                         train=_fixed_budget(preset.train_config))
                     for i in range(NC_SEEDS)],
            "noise_before": nl.noise_level(train),
            "texts": NC_SEEDS * (len(train) + len(val) + len(test)),
        }

    def run(self, state: dict) -> Outcome:
        calls, reports = [], []
        for cfg in state["cfgs"]:
            report, seconds = _timed(lambda: nl.run_experiment(cfg))
            calls.append(("nc", seconds))
            reports.append(report)
        runs = [r.per_run[0] for r in reports]
        return Outcome(calls, float(np.mean([r.accuracy_mean for r in reports])),
                       float(np.mean([r.get("noise_after") for r in runs])),
                       state["texts"], len(runs), sum(map(_failed_runs, reports)),
                       {f"nc_report_{i}": sha256(r.to_json())
                        for i, r in enumerate(reports)},
                       detail={"reports": reports})

    def check(self, state: dict, out: Outcome) -> None:
        for report in out.detail["reports"]:
            _check_report(report, "nc")
            run = report.per_run[0]
            if run["noise_before"] != state["noise_before"]:
                raise CheckFailed("nc noise_before differs from the generated input")
            if not run["noise_after"] < run["noise_before"]:
                raise CheckFailed(f"cleaning did not lower noise: {run}")


class EnsemblesHausa:
    name = "ensembles_hausa"
    why = ("Only workload with co-teaching, ceta, ensemble averaging and checkpoint "
           "writes: hte, boosting, hme on hausa_like, 150-step trainings; loads "
           "ensembles, training; bypasses cleaning")

    def setup(self, seed: int, workdir: Path) -> dict:
        preset, train, val, test = _preset_inputs("hausa_like")
        cfgs = {m: nl.ExperimentConfig(method=m, dataset={"preset": "hausa_like"},
                                       runs=1, base_seed=seed,
                                       train=_fixed_budget(preset.train_config))
                for m in ("hte", "boosting")}
        return {"preset": preset, "train": train, "val": val, "test": test,
                "cfgs": cfgs, "seed": seed, "workdir": workdir,
                "texts": 3 * (len(train) + len(val) + len(test))}

    def run(self, state: dict) -> Outcome:
        preset, test = state["preset"], state["test"]
        feat = preset.featurizer
        outdir = Path(tempfile.mkdtemp(prefix="hme-", dir=state["workdir"]))

        calls, reports = [], {}
        for m, cfg in state["cfgs"].items():
            reports[m], seconds = _timed(lambda: nl.run_experiment(cfg))
            calls.append((m, seconds))
        (grid, members), seconds = _timed(lambda: _ensemble_members(
            preset, state["train"], state["val"], FIXED_GRID, state["seed"]))
        calls.append(("hme.train", seconds))
        (hme_acc, preds), seconds = _timed(
            lambda: nl.predict_ensemble(members, test, feat))
        calls.append(("hme.predict", seconds))
        _, seconds = _timed(lambda: nl.save_ensemble(
            outdir, feat, members, configs=grid, seeds=[c.seed for c in grid]))
        calls.append(("hme.save", seconds))
        checkpoints = hashlib.sha256()
        for path in sorted(outdir.iterdir()):
            checkpoints.update(path.name.encode() + b"\0" + path.read_bytes())
        shutil.rmtree(outdir)

        expected = {"hte": 3, "boosting": nl.EnsembleSettings().members}
        attempted = len(reports) + sum(expected.values()) + len(grid)
        failed = len(grid) - len(members)
        for m, report in reports.items():
            failed += _failed_runs(report) + sum(
                expected[m] - r["n_members"] for r in report.per_run if "n_members" in r)
        accuracies = [r.accuracy_mean for r in reports.values()] + [hme_acc]
        digests = {f"{m}_report": sha256(r.to_json()) for m, r in reports.items()}
        digests["hme_probs"] = sha256(preds.averaged.tobytes())
        digests["hme_checkpoints"] = checkpoints.hexdigest()
        return Outcome(calls, float(np.mean(accuracies)),
                       nl.noise_level(state["train"]), state["texts"], attempted,
                       failed, digests,
                       detail={"reports": reports})

    def check(self, state: dict, out: Outcome) -> None:
        for m, report in out.detail["reports"].items():
            _check_report(report, m)
        if out.failed:
            raise CheckFailed(f"{out.failed} failed runs or ensemble members")


class PredictBulk:
    name = "predict_bulk"
    why = ("Read path: load a saved 5-member hausa_like ensemble, then 50 requests "
           "of 500 new texts each; loads featurize, predict, checkpoint load; "
           "bypasses training, cleaning")

    def setup(self, seed: int, workdir: Path) -> dict:
        preset, train, val, _ = _preset_inputs("hausa_like")
        grid, members = _ensemble_members(preset, train, val, FIXED_GRID, seed)
        outdir = Path(tempfile.mkdtemp(prefix="bulk-", dir=workdir))
        manifest = nl.save_ensemble(outdir, preset.featurizer, members, configs=grid,
                                    seeds=[c.seed for c in grid])
        corpus = nl.generate_synthetic_corpus(
            preset.n_classes, REQUESTS * REQUEST_TEXTS, preset.vocab_per_class,
            preset.overlap, seed=seed, class_weights=preset.class_weights,
            global_token_fraction=preset.global_token_fraction)
        requests = [corpus.select(range(i, i + REQUEST_TEXTS))
                    for i in range(0, len(corpus), REQUEST_TEXTS)]
        return {"manifest": manifest, "requests": requests,
                "train_noise": nl.noise_level(train)}

    def run(self, state: dict) -> Outcome:
        (feat, members), seconds = _timed(lambda: nl.load_ensemble(state["manifest"]))
        calls, predictions = [("load", seconds)], []
        # every request is REQUEST_TEXTS texts drawn from one corpus, so the
        # requests are calls of one kind
        for request in state["requests"]:
            (_, preds), seconds = _timed(
                lambda: nl.predict_ensemble(members, request, feat))
            calls.append(("request", seconds))
            predictions.append(preds)
        correct = sum(int((p.predicted == r.observed()).sum())
                      for p, r in zip(predictions, state["requests"]))
        texts = sum(len(r) for r in state["requests"])
        digest = sha256(b"".join(p.averaged.tobytes() for p in predictions))
        return Outcome(calls, correct / texts, state["train_noise"], texts,
                       len(calls), 0, {"predictions": digest},
                       detail={"feat": feat, "members": members,
                               "predictions": predictions})

    def check(self, state: dict, out: Outcome) -> None:
        feat, members = out.detail["feat"], out.detail["members"]
        pairs = list(zip(state["requests"], out.detail["predictions"]))
        for _, preds in pairs:
            if np.abs(preds.averaged.sum(axis=1) - 1.0).max() > 1e-12:
                raise CheckFailed("averaged probabilities do not sum to 1")
        # recomputing the reference featurizes again, so a tenth of the
        # requests (2,500 texts) is compared
        for request, preds in pairs[::CHECKED_EVERY]:
            x = nl.featurize_texts(feat, request.texts())
            reference = np.mean([nl_model.predict_probs(m, x) for m in members],
                                axis=0)
            if np.abs(preds.averaged - reference).max() > 1e-12:
                raise CheckFailed("averaged probabilities differ from the member mean")


WORKLOADS = {w.name: w for w in (NcYoruba(), EnsemblesHausa(), PredictBulk())}
