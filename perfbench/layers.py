"""Which library calls the traced run wraps, and the per-layer metrics it
derives from their spans.

Every per-layer metric is taken over the single traced pass of a
workload's timed part. PER_LAYER also records, for each metric, the
end-to-end metric and workload it is expected to move; BENCHMARK.json
lists the same names, units and directions.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict

from tracer import END, NAME, PARENT, START, self_times

TRAINERS = ("training.train_vanilla", "training.train_coteaching",
            "training.train_ceta")
ENSEMBLE_TRAINERS = ("ensembles.train_homogeneous",
                     "ensembles.train_heterogeneous", "ensembles.train_boosting")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _featurized(tracer, args, kwargs, result):
    texts = _arg(args, kwargs, 1, "texts")
    tracer.counters["featurize.rows"] += len(texts)
    tracer.distinct.setdefault("texts", set()).update(texts)


def _checkpoint_bytes(tracer, args, kwargs, result):
    if not isinstance(result, Exception):
        tracer.counters["checkpoint.bytes"] += os.path.getsize(
            _arg(args, kwargs, 0, "path"))


def _trained(tracer, args, kwargs, result):
    if not isinstance(result, Exception):
        tracer.counters["training.steps"] += len(result[-1])
        tracer.counters["training.budget"] += _arg(args, kwargs, 2, "cfg").steps


def _tuned(tracer, args, kwargs, result):
    if not isinstance(result, Exception):
        diagnostics = result[1]
        tracer.counters["cleaning.candidates"] += len(diagnostics)
        # kept sets are nested in the threshold, so equal sizes are equal sets
        tracer.counters["cleaning.candidates_distinct"] += len(
            {d.cleaned_size for d in diagnostics})


def _members(tracer, args, kwargs, result):
    attempted = _arg(args, kwargs, 2, "spec").member_count
    survived = 0 if isinstance(result, Exception) else len(result)
    tracer.counters["ensembles.attempted"] += attempted
    tracer.counters["ensembles.failed"] += attempted - survived


# (module, function or Class.method, hook) for every wrapped public call;
# featurize_dataset, evaluate and the ensemble save/load have no metric of
# their own but show in the spans file where nested calls come from
TARGETS = (
    ("model", "featurize_dataset", None),
    ("model", "featurize_texts", _featurized),
    ("model", "init_params", None),
    ("model", "mean_ce_and_grads", None),
    ("model", "backward_from_logit_grads", None),
    ("model", "apply_grads", None),
    ("model", "evaluate", None),
    ("model", "evaluate_features", None),
    ("model", "predict_probs", None),
    ("model", "instance_losses", None),
    ("model", "save_model", _checkpoint_bytes),
    ("model", "load_model", _checkpoint_bytes),
    ("model", "ModelParams.copy", None),
    ("training", "train_vanilla", _trained),
    ("training", "train_coteaching", _trained),
    ("training", "train_ceta", _trained),
    ("training", "ceta_batch_objective", None),
    ("cleaning", "heldout_losses", None),
    ("cleaning", "tune_threshold", _tuned),
    ("cleaning", "clean_dataset", None),
    ("cleaning", "retrain_on_cleaned", None),
    ("ensembles", "train_homogeneous", _members),
    ("ensembles", "train_heterogeneous", _members),
    ("ensembles", "train_boosting", _members),
    ("ensembles", "predict_ensemble", None),
    ("ensembles", "save_ensemble", None),
    ("ensembles", "load_ensemble", None),
    ("harness", "run_experiment", None),
    ("data", "generate_synthetic_corpus", None),
    ("data", "Dataset.select", None),
    ("noise", "inject_rule_noise", None),
    ("noise", "inject_uniform_noise", None),
    ("noise", "inject_annotation_noise", None),
    ("presets", "Preset.clean_splits", None),
)

_UPDATE = "wall_s on nc_yoruba and ensembles_hausa; never on predict_bulk"
_TRAIN = "wall_s on nc_yoruba and ensembles_hausa"
_CLEAN = "wall_s on nc_yoruba only"
_ENS = "completed_frac and wall_s on ensembles_hausa"
_SETUP = "setup_s on every workload; wall_s where run_experiment re-materialises the preset"

# name -> (unit, better, end-to-end metric and workload it should move)
PER_LAYER = {
    "model.update.ms": ("ms", "lower", _UPDATE),
    "model.update.calls": ("count", "lower", _UPDATE),
    "model.backward.ms": ("ms", "lower", _UPDATE),
    "model.forward.ms": ("ms", "lower", _UPDATE),
    "model.featurize.calls": ("count", "lower",
                              "wall_s on nc_yoruba and ensembles_hausa (redundancy)"),
    "model.featurize.rows": ("count", "lower",
                             "wall_s on nc_yoruba and ensembles_hausa (redundancy)"),
    "model.featurize.ms": ("ms", "lower",
                           "request_ms and texts_per_s on predict_bulk (per-row cost)"),
    "model.featurize.rows_per_distinct": ("ratio", "lower",
                                          "wall_s on nc_yoruba and ensembles_hausa; "
                                          "1.0 on predict_bulk"),
    "model.init.ms": ("ms", "lower", _TRAIN),
    "model.snapshot.calls": ("count", "lower", _TRAIN),
    "model.snapshot.ms": ("ms", "lower", _TRAIN),
    "model.eval.ms": ("ms", "lower", _TRAIN + "; request_ms on predict_bulk"),
    "model.score.ms": ("ms", "lower", "wall_s on nc_yoruba (held-out scoring) and "
                                      "ensembles_hausa (co-teaching selection)"),
    "model.score.calls": ("count", "lower", "wall_s on nc_yoruba and ensembles_hausa"),
    "model.checkpoint.save_ms": ("ms", "lower", "wall_s on ensembles_hausa"),
    "model.checkpoint.load_ms": ("ms", "lower", "wall_s on predict_bulk"),
    "model.checkpoint.bytes": ("B", "lower",
                               "wall_s on ensembles_hausa (save) and predict_bulk (load)"),
    "training.trainings.vanilla": ("count", "lower", _TRAIN),
    "training.trainings.coteaching": ("count", "lower", "wall_s on ensembles_hausa"),
    "training.trainings.ceta": ("count", "lower", "wall_s on ensembles_hausa"),
    "training.updates": ("count", "lower", _TRAIN),
    "training.steps_budget_frac": ("ratio", "lower", _TRAIN),
    "training.train_s_p50": ("s", "lower", _TRAIN),
    "training.train_s_n": ("count", "lower", _TRAIN),
    "training.loop_self_ms": ("ms", "lower", _TRAIN),
    # ceta computes its backward pass inline, so it shows only here and not
    # in model.backward.ms or model.forward.ms
    "training.ceta_objective.ms": ("ms", "lower", "wall_s on ensembles_hausa"),
    "cleaning.heldout.calls": ("count", "lower", _CLEAN),
    "cleaning.fold_trainings": ("count", "lower", _CLEAN),
    "cleaning.heldout.ms": ("ms", "lower", _CLEAN),
    "cleaning.candidates": ("count", "lower", _CLEAN),
    "cleaning.candidates_distinct": ("count", "lower", _CLEAN),
    "cleaning.tune.ms": ("ms", "lower", _CLEAN),
    "cleaning.clean.ms": ("ms", "lower", _CLEAN),
    "cleaning.retrain.ms": ("ms", "lower", _CLEAN),
    "ensembles.members.attempted": ("count", "higher", _ENS),
    "ensembles.members.failed": ("count", "lower", _ENS),
    "ensembles.train.ms": ("ms", "lower", _ENS),
    "ensembles.predict.ms": ("ms", "lower", _ENS + "; request_ms on predict_bulk"),
    "harness.run_experiment.ms": ("ms", "lower", _TRAIN),
    # materialisation and bookkeeping outside the wrapped layers
    "harness.self_ms": ("ms", "lower", _TRAIN),
    "data.corpus_gen.ms": ("ms", "lower", _SETUP),
    "data.select.calls": ("count", "lower", _SETUP),
    "noise.inject.ms": ("ms", "lower", _SETUP),
    "presets.clean_splits.ms": ("ms", "lower", _SETUP),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall_s of one pass"),
}


def per_layer_metrics(tracer, overhead_s: float) -> dict[str, float]:
    """Per-layer values of one traced pass, keyed as in PER_LAYER."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[NAME]].append(i)

    def dur(i: int) -> float:
        return spans[i][END] - spans[i][START]

    def inside(i: int, names) -> bool:
        parent = spans[i][PARENT]
        while parent is not None:
            if spans[parent][NAME] in names:
                return True
            parent = spans[parent][PARENT]
        return False

    def ms(*names) -> float:
        """Time in the named spans, counting nested occurrences once."""
        return 1000.0 * sum(dur(i) for n in names for i in by_name[n]
                            if not inside(i, names))

    def self_ms(*names) -> float:
        return 1000.0 * sum(selfs[i] for n in names for i in by_name[n])

    def calls(*names) -> int:
        return sum(len(by_name[n]) for n in names)

    c = tracer.counters
    distinct = len(tracer.distinct.get("texts", ()))
    train_s = [dur(i) for n in TRAINERS for i in by_name[n]]
    return {
        "model.update.ms": ms("model.apply_grads"),
        "model.update.calls": calls("model.apply_grads"),
        "model.backward.ms": ms("model.backward_from_logit_grads"),
        "model.forward.ms": self_ms("model.mean_ce_and_grads"),
        "model.featurize.calls": calls("model.featurize_texts"),
        "model.featurize.rows": c["featurize.rows"],
        "model.featurize.ms": ms("model.featurize_texts"),
        "model.featurize.rows_per_distinct":
            c["featurize.rows"] / distinct if distinct else 0.0,
        "model.init.ms": ms("model.init_params"),
        "model.snapshot.calls": calls("model.ModelParams.copy"),
        "model.snapshot.ms": ms("model.ModelParams.copy"),
        "model.eval.ms": ms("model.evaluate_features", "model.predict_probs"),
        "model.score.ms": ms("model.instance_losses"),
        "model.score.calls": calls("model.instance_losses"),
        "model.checkpoint.save_ms": ms("model.save_model"),
        "model.checkpoint.load_ms": ms("model.load_model"),
        "model.checkpoint.bytes": c["checkpoint.bytes"],
        "training.trainings.vanilla": calls("training.train_vanilla"),
        "training.trainings.coteaching": calls("training.train_coteaching"),
        "training.trainings.ceta": calls("training.train_ceta"),
        "training.updates": c["training.steps"],
        "training.steps_budget_frac":
            c["training.steps"] / c["training.budget"] if c["training.budget"] else 0.0,
        "training.train_s_p50": statistics.median(train_s) if train_s else 0.0,
        "training.train_s_n": len(train_s),
        "training.loop_self_ms": self_ms(*TRAINERS),
        "training.ceta_objective.ms": ms("training.ceta_batch_objective"),
        "cleaning.heldout.calls": calls("cleaning.heldout_losses"),
        "cleaning.fold_trainings": sum(
            1 for i in by_name["training.train_vanilla"]
            if inside(i, ("cleaning.heldout_losses",))),
        "cleaning.heldout.ms": ms("cleaning.heldout_losses"),
        "cleaning.candidates": c["cleaning.candidates"],
        "cleaning.candidates_distinct": c["cleaning.candidates_distinct"],
        "cleaning.tune.ms": ms("cleaning.tune_threshold"),
        "cleaning.clean.ms": ms("cleaning.clean_dataset"),
        "cleaning.retrain.ms": ms("cleaning.retrain_on_cleaned"),
        "ensembles.members.attempted": c["ensembles.attempted"],
        "ensembles.members.failed": c["ensembles.failed"],
        "ensembles.train.ms": ms(*ENSEMBLE_TRAINERS),
        "ensembles.predict.ms": ms("ensembles.predict_ensemble"),
        "harness.run_experiment.ms": ms("harness.run_experiment"),
        "harness.self_ms": self_ms("harness.run_experiment"),
        "data.corpus_gen.ms": ms("data.generate_synthetic_corpus"),
        "data.select.calls": calls("data.Dataset.select"),
        "noise.inject.ms": ms("noise.inject_rule_noise", "noise.inject_uniform_noise",
                              "noise.inject_annotation_noise"),
        "presets.clean_splits.ms": ms("presets.Preset.clean_splits"),
        "trace.overhead_s": overhead_s,
    }
