"""Byte-identity gate: the sha256 of each experiment report must equal the
digest committed in report_digests.json.

The digests were made under the numpy and scipy versions recorded next to
them; other versions may change the floating-point bits, so a version
mismatch fails with both versions named rather than passing silently. A
change that alters report bytes on purpose regenerates the file with

    PYTHONPATH=src python tests/test_report_digests.py

and says so in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from noisylabels import ExperimentConfig, run_experiment

DIGESTS = Path(__file__).with_name("report_digests.json")

SYNTHETIC = {
    "dataset": {"synthetic": {"classes": 3, "instances": 240,
                              "vocab_per_class": 20, "overlap": 0.05,
                              "seed": 11, "annotators_per_instance": 3,
                              "annotator_disagreement": 0.6}},
    "split": {"train": 0.7, "validation": 0.15, "test": 0.15, "seed": 5},
    "noise": {"kind": "uniform_random", "level": 0.25},
    "train": {"steps": 60, "learning_rate": 0.5, "patience": 2,
              "eval_every": 10, "hidden_size": 16, "drop_rate": 0.2,
              "warmup_steps": 10},
    "ensemble": {"members": 3},
    "cleaning": {"folds": 3, "tuning_quantiles": [0.6, 0.9]},
    "runs": 2,
    "base_seed": 4,
}

RULES = [{"keywords": ["tok0001", "tok0020", "tok0039"], "label": 1},
         {"keywords": ["tok0024"], "label": "class2"}]

# name -> config; every method on the synthetic config, nc with a fixed
# threshold too, plus each noise kind and a preset with its own rule labeler
CONFIGS = {
    **{method: {**SYNTHETIC, "method": method}
       for method in ("vanilla", "coteaching", "ceta", "hme", "hte",
                      "boosting", "nc")},
    # keeps 112 and 118 of the 168 training instances in its two runs
    "nc/fixed_threshold": {**SYNTHETIC, "method": "nc",
                           "cleaning": {"folds": 3, "threshold": 1.0}},
    "vanilla/pseudo_real_world": {
        **SYNTHETIC, "method": "vanilla",
        "noise": {"kind": "pseudo_real_world", "level": 0.2}},
    "vanilla/feature_dependent": {
        **SYNTHETIC, "method": "vanilla", "noise_validation": False,
        "noise": {"kind": "feature_dependent", "rules": RULES,
                  "fallback": "random", "seed": 3}},
    "vanilla/yoruba_like": {
        "method": "vanilla", "dataset": {"preset": "yoruba_like"},
        "train": {"steps": 30, "eval_every": 10, "hidden_size": 16},
        "runs": 1},
}


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def report_digest(raw: dict) -> str:
    report = run_experiment(ExperimentConfig.from_dict(raw))
    return hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def committed() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_digests_cover_every_config(committed):
    assert sorted(committed["digests"]) == sorted(CONFIGS)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_report_bytes_match_committed_digest(committed, name):
    made_under, here = committed["versions"], versions()
    assert made_under == here, (
        f"digests were made under numpy {made_under['numpy']}, scipy "
        f"{made_under['scipy']}; this is numpy {here['numpy']}, scipy "
        f"{here['scipy']}")
    assert report_digest(CONFIGS[name]) == committed["digests"][name]


if __name__ == "__main__":
    payload = {"versions": versions(),
               "digests": {name: report_digest(raw)
                           for name, raw in CONFIGS.items()}}
    DIGESTS.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(payload['digests'])} digests to {DIGESTS}")
