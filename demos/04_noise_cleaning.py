# Loss-threshold noise cleaning: train fold models on each fold's complement,
# score held-out instances, drop everything at or above a tuned threshold,
# and retrain on the survivors. The yoruba-like regime cleans up well; the
# hausa-like regime (one class mostly mislabeled, self-consistently) resists.
from dataclasses import replace

from noisylabels import (
    CleanConfig,
    clean_dataset,
    evaluate,
    get_preset,
    threshold_sweep_csv,
    train_vanilla,
)

for preset in (get_preset("yoruba_like"), get_preset("hausa_like")):
    train, val, test = preset.noisy_splits()
    cfg = replace(preset.train_config, seed=0)
    feat = preset.featurizer

    baseline, _ = train_vanilla(train, val, cfg, feat)
    baseline_acc = evaluate(baseline, test, feat)

    # one pass: tune the threshold, clean, and keep the retrained model
    cleaned, report, diagnostics, model = clean_dataset(
        train, CleanConfig(folds=5, seed=0), cfg, feat, val)
    threshold, cleaned_acc = report.threshold_used, evaluate(model, test, feat)

    print(f"--- {preset.name} ---")
    print(f"tuned threshold {threshold:.3f} "
          f"(grid of {len(diagnostics)} loss deciles)")
    print(f"kept {len(cleaned)}/{len(train)} instances")
    print(f"noise level {report.noise_before:.3f} -> {report.noise_after:.3f}")
    print(f"clean-test accuracy: vanilla {baseline_acc:.4f} -> "
          f"retrained-on-cleaned {cleaned_acc:.4f}")
    print("threshold sweep (plot-ready CSV):")
    print(threshold_sweep_csv(diagnostics))
