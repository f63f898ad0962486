# The three ensemble flavours, all combined by averaging member
# probabilities: varied hyperparameters, varied methods, varied data subsets.
import tempfile
from dataclasses import replace
from pathlib import Path

from noisylabels import (
    COMPACT_GRID,
    EnsembleSpec,
    evaluate,
    inject_uniform_noise,
    load_ensemble,
    predict_ensemble,
    sample_grid_configs,
    save_ensemble,
    separable_preset,
    train_boosting,
    train_heterogeneous,
    train_homogeneous,
    train_vanilla,
)

preset = separable_preset()
train, val, test = preset.clean_splits()
train = inject_uniform_noise(train, 0.3, seed=1)
val = inject_uniform_noise(val, 0.3, seed=2)
cfg = replace(preset.train_config, seed=0)
feat = preset.featurizer

solo, _ = train_vanilla(train, val, cfg, feat)
print(f"single vanilla model: {evaluate(solo, test, feat):.4f}")

# homogeneous: same method, configs sampled from the grid (distinct
# steps/learning-rate pairs per member)
grid = tuple(sample_grid_configs(COMPACT_GRID, 3, seed=5, base=cfg))
spec = EnsembleSpec(kind="homogeneous", member_count=3,
                    hyperparameter_grid=grid)
members = train_homogeneous(train, val, spec, feat)
acc, _ = predict_ensemble(members, test, feat)
print(f"homogeneous ensemble of {len(members)}: {acc:.4f}  "
      f"(steps/lr pairs: {[(c.steps, c.learning_rate) for c in grid]})")

# heterogeneous: one member per training method
spec = EnsembleSpec(kind="heterogeneous", member_count=3,
                    member_methods=("vanilla", "coteaching", "ceta"),
                    base_config=cfg)
members = train_heterogeneous(train, val, spec, feat)
acc, _ = predict_ensemble(members, test, feat)
print(f"heterogeneous ensemble (vanilla, co-teaching, consensus): {acc:.4f}")

# subset ensembles: each member sees a random half of the training data
spec = EnsembleSpec(kind="boosting", member_count=4, subset_fraction=0.5,
                    base_config=cfg, seed=9)
members = train_boosting(train, val, spec, feat)
acc, predictions = predict_ensemble(members, test, feat)
print(f"subset ensemble (4 members on 50% subsets): {acc:.4f}")

# everything needed to re-run prediction fits in a manifest directory
with tempfile.TemporaryDirectory() as tmp:
    manifest = save_ensemble(Path(tmp) / "ens", feat, members,
                             methods=["vanilla"] * 4)
    feat2, reloaded = load_ensemble(manifest)
    acc2, _ = predict_ensemble(reloaded, test, feat2)
    print(f"reloaded from manifest: {acc2:.4f} (identical: {acc2 == acc})")
