"""Tests of the benchmark's own code: the tracer's self-time arithmetic, the
restoring of wrapped functions, and agreement with BENCHMARK.json."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def test_self_time_on_hand_built_tree():
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["b", 3.5, 6.0, 0, 0],    # overlaps a: the union [1, 6] is covered
        ["c", 9.0, 12.0, 0, 0],   # runs past the root: clipped to [9, 10]
        ["other", 20.0, 21.0, None, 1],
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 1, 2.5, 3, 1])


def test_spans_nest_under_the_calling_span():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: (inner(), inner()), "outer")
    outer()
    outer()
    assert tracer.spans[:3] == [
        ["outer", 0.0, 5.0, None, 0], ["inner", 1.0, 2.0, 0, 0],
        ["inner", 3.0, 4.0, 0, 0]]
    assert [s[4] for s in tracer.spans[3:]] == [3, 3, 3]
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0] * 2


def test_install_wraps_every_binding_and_uninstall_restores():
    import noisylabels
    from noisylabels import data, ensembles, model, training

    before = {
        (mod, name): getattr(mod, name)
        for mod in (noisylabels, model, training, ensembles)
        for name in ("featurize_dataset", "predict_probs", "train_vanilla")
        if hasattr(mod, name)
    }
    copy, select = model.ModelParams.copy, data.Dataset.select
    tracer = Tracer()
    with tracer.installed("noisylabels", layers.TARGETS):
        for (mod, name), original in before.items():
            assert getattr(mod, name) is not original, (mod.__name__, name)
        assert model.ModelParams.copy is not copy
        assert data.Dataset.select is not select
        model.featurize_texts(model.Featurizer(hash_dim=16), ["a b", "a b", "c"])
    for (mod, name), original in before.items():
        assert getattr(mod, name) is original, (mod.__name__, name)
    assert model.ModelParams.copy is copy and data.Dataset.select is select
    assert [s[0] for s in tracer.spans] == ["model.featurize_texts"]
    metrics = layers.per_layer_metrics(tracer, 0.0)
    assert metrics["model.featurize.rows"] == 3
    assert metrics["model.featurize.rows_per_distinct"] == 1.5


def test_uninstall_restores_after_an_exception():
    from noisylabels import model

    original = model.apply_grads
    with pytest.raises(RuntimeError):
        with Tracer().installed("noisylabels", layers.TARGETS):
            raise RuntimeError
    assert model.apply_grads is original


def test_metric_lists_match_benchmark_json():
    import run
    import workloads

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, (unit, better, _) in layers.PER_LAYER.items()]
    assert set(layers.per_layer_metrics(Tracer(), 0.0)) == set(layers.PER_LAYER)


def test_wall_time_takes_each_kind_of_call_at_its_fastest():
    import run
    from workloads import Outcome

    def outcome(calls):
        return Outcome(calls, 0.5, 0.25, 40, len(calls), 0, {})

    passes = [outcome([("load", 3.0), ("request", 2.0), ("request", 4.0)]),
              outcome([("load", 1.0), ("request", 3.0), ("request", 5.0)])]
    assert run.fastest(passes) == {"load": 1.0, "request": 2.0}
    assert run.call_times(passes) == {"load": [3.0, 1.0],
                                      "request": [2.0, 4.0, 3.0, 5.0]}
    metrics = run.end_to_end([0.3, 0.1, 0.2], passes)
    assert metrics["wall_s"] == 1.0 + 2 * 2.0
    assert metrics["request_ms"] == 2000.0
    assert metrics["texts_per_s"] == 40 / 5.0
    assert metrics["setup_s"] == 0.2
    training = run.end_to_end([1.0], [outcome([("nc", 7.0)]), outcome([("nc", 6.0)])])
    assert training["wall_s"] == training["request_ms"] / 1000 == 6.0
