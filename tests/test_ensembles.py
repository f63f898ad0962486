import itertools
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from noisylabels import (
    COMPACT_GRID,
    CoteachSchedule,
    DivergenceError,
    EnsembleSpec,
    Featurizer,
    GridLists,
    MethodError,
    TrainConfig,
    ValidationError,
    evaluate,
    featurize_dataset,
    featurize_texts,
    init_params,
    load_ensemble,
    predict_ensemble,
    sample_grid_configs,
    save_ensemble,
    train_boosting,
    train_coteaching,
    train_heterogeneous,
    train_homogeneous,
    train_vanilla,
)
from noisylabels.ensembles import boosting_subset
from noisylabels.model import predict_probs

# the hyperparameter lists the paper samples for fine-tuning large pretrained
# encoders; far too slow a learning rate for the built-in model
BERT_GRID = GridLists(
    steps=(2000, 3000, 4000, 5000, 6000),
    learning_rate=(0.0002, 0.0004, 0.0005, 0.00001, 0.00002, 0.00003, 0.00004,
                   0.00005),
    patience=(25, 30, 40, 50),
    warmup_steps=(0, 1, 5, 7, 10),
    weight_decay=(0.1, 0.001, 0.0001),
    drop_rate=(0.1, 0.25, 0.5, 0.8),
)


def random_members(featurizer, m, k, seed=0, heads=1):
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(m):
        p = init_params(featurizer, n_labels=k, hidden_size=8, n_heads=heads,
                        seed=int(rng.integers(1 << 30)))
        p.encoder *= rng.uniform(0.5, 3.0)
        members.append(p)
    return members


class TestAveraging:
    def test_mean_matches_brute_force(self, small_splits, tiny_featurizer):
        _, _, test = small_splits
        members = random_members(tiny_featurizer, 3, 3, seed=5)
        _, pred = predict_ensemble(members, test, tiny_featurizer)
        brute = sum(pred.member_probs) / 3.0
        assert np.allclose(pred.averaged, brute, atol=1e-15)
        assert np.allclose(pred.averaged.sum(axis=1), 1.0, atol=1e-12)

    def test_single_member_equals_model_eval(self, small_splits,
                                             tiny_featurizer):
        _, _, test = small_splits
        member = random_members(tiny_featurizer, 1, 3, seed=2)[0]
        acc, pred = predict_ensemble([member], test, tiny_featurizer)
        assert acc == evaluate(member, test, tiny_featurizer)
        probs = predict_probs(member, featurize_dataset(tiny_featurizer, test))
        assert np.array_equal(pred.predicted, probs.argmax(axis=1))

    def test_permutation_invariant(self, small_splits, tiny_featurizer):
        _, _, test = small_splits
        members = random_members(tiny_featurizer, 4, 3, seed=9)
        acc1, pred1 = predict_ensemble(members, test, tiny_featurizer)
        acc2, pred2 = predict_ensemble(members[::-1], test, tiny_featurizer)
        assert acc1 == acc2
        assert np.allclose(pred1.averaged, pred2.averaged, atol=1e-15)

    def test_identical_members_match_single(self, small_splits,
                                            tiny_featurizer):
        _, _, test = small_splits
        member = random_members(tiny_featurizer, 1, 3, seed=1)[0]
        acc1, _ = predict_ensemble([member], test, tiny_featurizer)
        acc3, _ = predict_ensemble([member, member.copy(), member.copy()],
                                   test, tiny_featurizer)
        assert acc1 == acc3

    def test_tie_breaks_to_lowest_index(self, small_splits, tiny_featurizer):
        # members at (0.6, 0.4, ...) and (0.4, 0.6, ...) average to a tie
        _, _, test = small_splits
        a = init_params(tiny_featurizer, n_labels=3, hidden_size=4, seed=0)
        b = init_params(tiny_featurizer, n_labels=3, hidden_size=4, seed=0)
        for p, bias in ((a, [0.6, 0.4]), (b, [0.4, 0.6])):
            p.encoder[:] = 0.0
            p.heads[0].weights[:] = 0.0
            p.heads[0].bias[:] = np.array([np.log(bias[0]), np.log(bias[1]),
                                           -1e3])
        _, pred = predict_ensemble([a, b], test, tiny_featurizer)
        first = pred.averaged[0]
        assert first[0] == pytest.approx(first[1], abs=1e-12)
        assert (pred.predicted == 0).all()

    def test_mismatched_label_count_rejected(self, small_splits,
                                             tiny_featurizer):
        _, _, test = small_splits
        bad = random_members(tiny_featurizer, 1, 5, seed=3)
        with pytest.raises(ValidationError, match="labels"):
            predict_ensemble(bad, test, tiny_featurizer)

    def test_needs_members(self, small_splits, tiny_featurizer):
        with pytest.raises(ValidationError):
            predict_ensemble([], small_splits[2], tiny_featurizer)

    def test_empty_dataset_rejected(self, small_splits, tiny_featurizer):
        test = small_splits[2]
        members = random_members(tiny_featurizer, 2, 3, seed=2)
        with pytest.raises(ValidationError, match="cannot evaluate an empty"):
            predict_ensemble(members, test.select([]), tiny_featurizer)


class TestGridSampling:
    def test_distinct_steps_lr_pairs(self, fast_config):
        for grid in (COMPACT_GRID, BERT_GRID):
            configs = sample_grid_configs(grid, 5, seed=3, base=fast_config)
            pairs = {(c.steps, c.learning_rate) for c in configs}
            assert len(pairs) == 5
            assert len({c.seed for c in configs}) == 5
            for c in configs:
                assert c.steps in grid.steps
                assert c.learning_rate in grid.learning_rate
                assert c.patience in grid.patience
                assert c.warmup_steps in grid.warmup_steps
                assert c.weight_decay in grid.weight_decay
                assert c.drop_rate in grid.drop_rate

    def test_reference_grid_values(self, fast_config):
        # hyperparameter lists used at full pretrained-encoder scale
        assert BERT_GRID.steps == (2000, 3000, 4000, 5000, 6000)
        assert BERT_GRID.learning_rate == (
            0.0002, 0.0004, 0.0005, 0.00001, 0.00002, 0.00003, 0.00004, 0.00005)
        assert BERT_GRID.patience == (25, 30, 40, 50)
        assert BERT_GRID.warmup_steps == (0, 1, 5, 7, 10)
        assert BERT_GRID.weight_decay == (0.1, 0.001, 0.0001)
        assert BERT_GRID.drop_rate == (0.1, 0.25, 0.5, 0.8)
        # one member per (steps, learning rate) pair samples every pair once,
        # and every value makes a valid TrainConfig
        configs = sample_grid_configs(BERT_GRID, 40, seed=0, base=fast_config)
        assert sorted((c.steps, c.learning_rate) for c in configs) == sorted(
            itertools.product(BERT_GRID.steps, BERT_GRID.learning_rate))

    def test_too_many_members_rejected(self, fast_config):
        with pytest.raises(ValidationError):
            sample_grid_configs(COMPACT_GRID, 10_000, seed=0, base=fast_config)


def same_arrays(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))


class TestHomogeneous:
    def test_members_trained_and_deterministic(self, small_splits,
                                               tiny_featurizer, fast_config):
        train, val, test = small_splits
        grid = tuple(sample_grid_configs(COMPACT_GRID, 2, seed=1,
                                         base=replace(fast_config, steps=100)))
        grid = tuple(replace(c, steps=min(c.steps, 120)) for c in grid)
        spec = EnsembleSpec(kind="homogeneous", member_count=2,
                            hyperparameter_grid=grid)
        members_a = train_homogeneous(train, val, spec, tiny_featurizer)
        members_b = train_homogeneous(train, val, spec, tiny_featurizer)
        assert len(members_a) == 2
        _, pa = predict_ensemble(members_a, test, tiny_featurizer)
        _, pb = predict_ensemble(members_b, test, tiny_featurizer)
        assert np.array_equal(pa.averaged, pb.averaged)

    def test_members_equal_public_trainer(self, small_splits, tiny_featurizer,
                                          fast_config):
        train, val, _ = small_splits
        grid = (replace(fast_config, steps=60),
                replace(fast_config, steps=80, learning_rate=0.35, seed=5))
        members = train_homogeneous(
            train, val, EnsembleSpec(kind="homogeneous", hyperparameter_grid=grid),
            tiny_featurizer)
        assert len(members) == len(grid)
        for member, cfg in zip(members, grid):
            solo, _ = train_vanilla(train, val, cfg, tiny_featurizer)
            assert same_arrays(member, solo)

    def test_spec_validation(self, fast_config):
        with pytest.raises(ValidationError, match="grid"):
            EnsembleSpec(kind="homogeneous", member_count=2)
        with pytest.raises(ValidationError, match="member_count"):
            EnsembleSpec(kind="homogeneous", member_count=3,
                         hyperparameter_grid=(fast_config,))


@pytest.mark.parametrize("kind, listed, count", [
    ("homogeneous", {"hyperparameter_grid": (TrainConfig(), TrainConfig(seed=1))}, 2),
    ("heterogeneous", {"member_methods": ("vanilla", "coteaching", "ceta")}, 3),
    ("boosting", {}, 1),
])
def test_member_count_defaults_to_listed_members(kind, listed, count):
    assert EnsembleSpec(kind=kind, **listed).member_count == count


class TestHeterogeneous:
    def test_three_method_ensemble(self, small_splits, tiny_featurizer,
                                   fast_config):
        train, val, test = small_splits
        spec = EnsembleSpec(kind="heterogeneous", member_count=3,
                            member_methods=("vanilla", "coteaching", "ceta"),
                            base_config=fast_config)
        members = train_heterogeneous(train, val, spec, tiny_featurizer)
        assert len(members) == 3
        assert [m.n_heads for m in members] == [1, 1, 2]
        acc, pred = predict_ensemble(members, test, tiny_featurizer)
        assert acc >= 0.95
        assert np.allclose(pred.averaged.sum(axis=1), 1.0, atol=1e-12)

    def test_single_method_reduces_to_vanilla(self, small_splits,
                                              tiny_featurizer, fast_config):
        train, val, test = small_splits
        spec = EnsembleSpec(kind="heterogeneous", member_count=1,
                            member_methods=("vanilla",),
                            base_config=fast_config)
        members = train_heterogeneous(train, val, spec, tiny_featurizer)
        solo, _ = train_vanilla(train, val,
                                replace(fast_config, seed=fast_config.seed),
                                tiny_featurizer)
        acc_members, _ = predict_ensemble(members, test, tiny_featurizer)
        acc_solo = evaluate(solo, test, tiny_featurizer)
        assert acc_members == acc_solo

    def test_collapsed_ceta_member_dropped(self, small_splits, tiny_featurizer,
                                           fast_config, no_consensus, caplog):
        train, val, _ = small_splits
        sched = CoteachSchedule(tau=0.2, ramp_steps=40)
        spec = EnsembleSpec(kind="heterogeneous", member_count=3,
                            member_methods=("vanilla", "coteaching", "ceta"),
                            base_config=fast_config, coteach=sched)
        members = train_heterogeneous(train, val, spec, tiny_featurizer)
        # the ceta member ran one epoch, collapsed and was logged as failed
        assert len(no_consensus) == len(train) // fast_config.batch_size
        assert "ensemble member ceta failed: no consensus" in caplog.text
        vanilla, _ = train_vanilla(train, val, fast_config, tiny_featurizer)
        net1, _, _ = train_coteaching(
            train, val, replace(fast_config, seed=fast_config.seed + 1), sched,
            tiny_featurizer)
        assert len(members) == 2
        for member, expected in zip(members, (vanilla, net1)):
            assert same_arrays(member, expected)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            EnsembleSpec(kind="heterogeneous", member_count=1,
                         member_methods=("bert",))

    def test_every_member_failing_raises(self, small_splits, tiny_featurizer,
                                         fast_config, no_consensus):
        train, val, _ = small_splits
        spec = EnsembleSpec(kind="heterogeneous", member_methods=("ceta",),
                            base_config=fast_config)
        with pytest.raises(MethodError,
                           match="every ensemble member failed: ceta: no consensus"):
            train_heterogeneous(train, val, spec, tiny_featurizer)
        assert len(no_consensus) == len(train) // fast_config.batch_size

    def test_spec_of_another_kind_rejected(self, small_splits, tiny_featurizer,
                                           fast_config, no_training):
        train, val, _ = small_splits
        spec = EnsembleSpec(kind="boosting", member_count=2, base_config=fast_config)
        with pytest.raises(ValidationError, match="spec.kind must be 'homogeneous'"):
            train_homogeneous(train, val, spec, tiny_featurizer)


class TestBoosting:
    def test_subset_sizes_exact(self):
        assert boosting_subset(2000, 0.5, member_seed=1).size == 1000
        assert boosting_subset(2000, 0.8, member_seed=1).size == 1600
        assert boosting_subset(10, 1.0, member_seed=1).size == 10

    def test_no_duplicates_within_subset(self):
        subset = boosting_subset(500, 0.6, member_seed=9)
        assert len(np.unique(subset)) == subset.size

    def test_same_seed_identical_subsets(self):
        a = boosting_subset(300, 0.5, member_seed=4)
        b = boosting_subset(300, 0.5, member_seed=4)
        assert np.array_equal(a, b)
        c = boosting_subset(300, 0.5, member_seed=5)
        assert not np.array_equal(a, c)

    def test_full_fraction_sees_everything(self):
        subset = boosting_subset(120, 1.0, member_seed=2)
        assert np.array_equal(subset, np.arange(120))

    def test_training_and_prediction(self, small_splits, tiny_featurizer,
                                     fast_config):
        train, val, test = small_splits
        spec = EnsembleSpec(kind="boosting", member_count=3,
                            subset_fraction=0.5, base_config=fast_config,
                            seed=11)
        members = train_boosting(train, val, spec, tiny_featurizer)
        assert len(members) == 3
        acc, _ = predict_ensemble(members, test, tiny_featurizer)
        assert acc >= 0.9

    def test_members_equal_public_trainer(self, small_splits, tiny_featurizer,
                                          fast_config):
        train, val, _ = small_splits
        base = replace(fast_config, steps=80)
        spec = EnsembleSpec(kind="boosting", member_count=2, subset_fraction=0.6,
                            base_config=base, seed=11)
        members = train_boosting(train, val, spec, tiny_featurizer)
        assert len(members) == 2
        for i, member in enumerate(members):
            subset = boosting_subset(len(train), 0.6, 11 + i)
            solo, _ = train_vanilla(train.select(subset), val,
                                    replace(base, seed=11 + i), tiny_featurizer)
            assert same_arrays(member, solo)

    def test_fraction_validation(self):
        with pytest.raises(ValidationError):
            EnsembleSpec(kind="boosting", member_count=2, subset_fraction=0.0)
        with pytest.raises(ValidationError):
            boosting_subset(10, 0.01, member_seed=0)


class TestManifest:
    def test_roundtrip_and_predict(self, small_splits, tiny_featurizer,
                                   tmp_path, fast_config):
        train, val, test = small_splits
        members = random_members(tiny_featurizer, 2, 3, seed=7, heads=2)
        manifest = save_ensemble(tmp_path / "ens", tiny_featurizer, members,
                                 methods=["ceta", "ceta"],
                                 configs=[fast_config, fast_config],
                                 seeds=[0, 1])
        feat, loaded = load_ensemble(manifest)
        assert feat == tiny_featurizer
        acc_orig, pred_orig = predict_ensemble(members, test, tiny_featurizer)
        acc_loaded, pred_loaded = predict_ensemble(loaded, test, feat)
        assert acc_orig == acc_loaded
        assert np.array_equal(pred_orig.averaged, pred_loaded.averaged)

    def test_trained_members_predict_the_same_after_reload(
            self, small_splits, tiny_featurizer, tmp_path, fast_config):
        train, val, test = small_splits
        spec = EnsembleSpec(kind="heterogeneous", member_methods=("vanilla", "ceta"),
                            base_config=replace(fast_config, steps=60))
        members = train_heterogeneous(train, val, spec, tiny_featurizer)
        feat, loaded = load_ensemble(
            save_ensemble(tmp_path / "ens", tiny_featurizer, members))
        acc, pred = predict_ensemble(members, test, tiny_featurizer)
        acc_loaded, pred_loaded = predict_ensemble(loaded, test, feat)
        assert acc == acc_loaded
        assert np.array_equal(pred.member_probs, pred_loaded.member_probs)
        assert np.array_equal(pred.averaged, pred_loaded.averaged)

    @pytest.mark.parametrize("metadata, message", [
        ({"seeds": [np.int64(1), np.int64(2), np.int64(3)]}, "cannot be encoded"),
        ({"methods": ["vanilla"]}, "one entry per member"),
        ({"configs": [TrainConfig()]}, "one entry per member"),
        ({"seeds": [1, 2, 3, 4]}, "one entry per member"),
        ({"methods": []}, "one entry per member"),
    ], ids=["numpy-seeds", "one-method", "one-config", "four-seeds", "no-methods"])
    def test_bad_metadata_writes_nothing(self, tmp_path, tiny_featurizer,
                                         metadata, message):
        members = random_members(tiny_featurizer, 3, 3, seed=2)
        with pytest.raises(ValidationError, match=message):
            save_ensemble(tmp_path / "ens", tiny_featurizer, members, **metadata)
        assert list(tmp_path.iterdir()) == []

    def test_saves_only_what_load_accepts(self, tmp_path, tiny_featurizer):
        # load_ensemble refuses an empty member list and a non-finite member
        with pytest.raises(ValidationError, match="at least one member"):
            save_ensemble(tmp_path / "ens", tiny_featurizer, [])
        members = random_members(tiny_featurizer, 3, 3, seed=2)
        members[2].heads[0].bias[1] = np.nan
        with pytest.raises(DivergenceError):
            save_ensemble(tmp_path / "ens", tiny_featurizer, members)
        assert list(tmp_path.iterdir()) == []

    def test_bad_manifest_rejected(self, tmp_path):
        path = tmp_path / "ensemble.json"
        path.write_text('{"version": 1, "members": []}', encoding="utf-8")
        with pytest.raises(ValidationError):
            load_ensemble(path)

    def test_member_files_are_binary_checkpoints(self, tmp_path, tiny_featurizer):
        members = random_members(tiny_featurizer, 2, 3, seed=4)
        manifest = save_ensemble(tmp_path, tiny_featurizer, members)
        entries = json.loads(manifest.read_text(encoding="utf-8"))["members"]
        assert [e["checkpoint"] for e in entries] == ["member00.ckpt", "member01.ckpt"]
        assert (tmp_path / "member00.ckpt").read_bytes().startswith(b"\x93NUMPY")

    def test_version1_fixture_still_loads_bit_exact(self):
        """tests/fixtures/ensemble_v1 was written by the version-1 (JSON)
        save_ensemble, with the averaged probabilities it gave then."""
        feat, members = load_ensemble(FIXTURE_V1 / "ensemble.json")
        assert feat == Featurizer(hash_dim=16, ngram_orders=(1, 2), hash_seed=5)
        assert [(m.n_heads, m.drop_rate) for m in members] == [(2, 0.0), (2, 0.2)]
        expected = json.loads((FIXTURE_V1 / "expected.json").read_text(encoding="utf-8"))
        x = featurize_texts(feat, expected["texts"])
        averaged = np.mean([predict_probs(m, x) for m in members], axis=0)
        assert np.array_equal(averaged, np.array(expected["averaged"]))

    @pytest.mark.parametrize("corrupt", [
        lambda d, p: d["member"].write_bytes(d["member"].read_bytes()[:-5]),
        lambda d, p: d["member"].write_bytes(d["member"].read_bytes()[:40]),
        lambda d, p: write_v2(d["member"], p, version=3),
        lambda d, p: write_v2(d["member"], p, heads="2"),
        lambda d, p: write_v2(d["member"], p, heads=0, arrays=p.arrays()[:1]),
        lambda d, p: write_v2(d["member"], p, featurizer={"hash_dim": 16,
                                                          "ngram_orders": [1, 2],
                                                          "hash_seed": 2**63}),
        lambda d, p: write_v2(d["member"], p, drop_rate=1.0),
        lambda d, p: write_v2(d["member"], p, arrays=[
            np.full(p.encoder.shape, Tripwire(), dtype=object)] + p.arrays()[1:]),
        lambda d, p: write_v2(d["member"], p,
                              arrays=[a.astype(np.float32) for a in p.arrays()]),
        lambda d, p: write_v2(d["member"], p,
                              arrays=[a.astype(">f8") for a in p.arrays()]),
        lambda d, p: write_v2(d["member"], p, arrays=[p.encoder[:, :2]] + p.arrays()[1:]),
        lambda d, p: write_v2(d["member"], p, arrays=[p.encoder[:8]] + p.arrays()[1:]),
        lambda d, p: write_v2(d["member"], p, arrays=p.arrays()[:3] + [
            p.heads[1].weights[:, :2], p.heads[1].bias[:2]]),
        lambda d, p: write_v2(d["member"], p, arrays=[
            np.where(p.encoder > 0, np.nan, p.encoder)] + p.arrays()[1:]),
        lambda d, p: write_v2(d["member"], p, arrays=p.arrays()[:-1]),
        lambda d, p: d["member"].write_bytes(d["member"].read_bytes() + b"\0"),
        lambda d, p: declare_huge_encoder(d["member"], p),
        lambda d, p: write_v1(d["member"], p, ngram_orders=None),
        lambda d, p: write_v1(d["member"], p, hash_dim="16"),
        lambda d, p: d["member"].write_text("{", encoding="utf-8"),
        lambda d, p: write_manifest(d["manifest"], [1]),
        lambda d, p: write_manifest(d["manifest"], [{"checkpoint": 5}]),
        lambda d, p: write_manifest(d["manifest"], {"checkpoint": "member00.ckpt"}),
        # each names the valid member00.ckpt by a path, not a plain file name
        lambda d, p: write_manifest(d["manifest"],
                                    [{"checkpoint": str(d["member"].resolve())}]),
        lambda d, p: write_manifest(d["manifest"], [{"checkpoint": str(
            Path("..", d["member"].parent.name, d["member"].name))}]),
        lambda d, p: d["member"].unlink(),
        lambda d, p: d["manifest"].write_bytes(b"\xff"),
    ], ids=["truncated", "truncated-header", "unknown-version", "heads-not-int",
            "no-heads", "hash-seed-range", "drop-rate", "object-dtype", "float32",
            "big-endian", "hidden-mismatch", "rows-not-hash-dim", "labels-differ",
            "non-finite", "missing-array", "trailing-bytes", "huge-declared-shape",
            "v1-no-ngram-orders",
            "v1-wrong-type", "v1-not-json", "member-not-object",
            "checkpoint-not-string", "members-not-list", "checkpoint-absolute",
            "checkpoint-outside-directory", "missing-member-file",
            "manifest-not-json"])
    def test_malformed_input_raises_validation_error(self, tmp_path, corrupt):
        feat = Featurizer(hash_dim=16, ngram_orders=(1, 2), hash_seed=5)
        params = init_params(feat, n_labels=3, hidden_size=3, n_heads=2, seed=1)
        manifest = save_ensemble(tmp_path, feat, [params])
        paths = {"manifest": manifest, "member": tmp_path / "member00.ckpt"}
        saved = paths["member"].read_bytes()
        write_v2(paths["member"], params)
        assert paths["member"].read_bytes() == saved  # the helper writes save_model's format
        corrupt(paths, params)
        UNPICKLED.clear()
        with pytest.raises(ValidationError):
            load_ensemble(manifest)
        assert not UNPICKLED


FIXTURE_V1 = Path(__file__).parent / "fixtures" / "ensemble_v1"
UNPICKLED = []


def _unpickled():
    UNPICKLED.append(True)


class Tripwire:
    """An object whose unpickling is recorded."""

    def __reduce__(self):
        return _unpickled, ()


def write_v2(path, params, arrays=None, **meta):
    """A version-2 member written record by record, with metadata fields
    and arrays replaced as given (object arrays are pickled)."""
    meta = {"version": 2, "featurizer": {"hash_dim": 16, "ngram_orders": [1, 2],
                                         "hash_seed": 5},
            "drop_rate": params.drop_rate, "heads": params.n_heads, **meta}
    records = [np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)]
    with open(path, "wb") as fh:
        for record in records + list(params.arrays() if arrays is None else arrays):
            np.lib.format.write_array(fh, record, allow_pickle=True)


def declare_huge_encoder(path, params):
    """A member whose encoder header declares 768 TiB of floats, more than
    a 64-bit address space holds, so no allocation can succeed."""
    write_v2(path, params, arrays=[])
    with open(path, "ab") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": (2**45, 3)})


def write_v1(path, params, **featurizer):
    """A version-1 JSON member; featurizer fields set to None are left out."""
    fields = {"hash_dim": 16, "ngram_orders": [1, 2], "hash_seed": 5, **featurizer}
    payload = {"version": 1,
               "featurizer": {k: v for k, v in fields.items() if v is not None},
               "drop_rate": params.drop_rate, "encoder": params.encoder.tolist(),
               "heads": [{"weights": h.weights.tolist(), "bias": h.bias.tolist()}
                         for h in params.heads]}
    path.write_text(json.dumps(payload), encoding="utf-8")


def write_manifest(path, members):
    path.write_text(json.dumps({"version": 1, "members": members}), encoding="utf-8")
