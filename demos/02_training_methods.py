# Train the three regimes on the yoruba-like preset (gazetteer noise around
# a third of the training labels) and evaluate each on the clean test split.
from dataclasses import replace

import numpy as np

from noisylabels import (
    CetaConfig,
    CoteachSchedule,
    evaluate,
    get_preset,
    noise_level,
    train_ceta,
    train_coteaching,
    train_vanilla,
)

preset = get_preset("yoruba_like")
train, val, test = preset.noisy_splits()
print(f"train noise level: {noise_level(train):.3f} "
      f"({len(train)} instances, {len(train.label_set)} classes)")

cfg = replace(preset.train_config, seed=0)
feat = preset.featurizer

# vanilla: plain SGD, early-stopped on the noisy validation set
params, history = train_vanilla(train, val, cfg, feat)
evals = [h for h in history if h.get("val_accuracy") is not None]
print(f"\nvanilla: stopped after {history[-1]['step']} steps "
      f"({len(evals)} evaluations)")
print(f"  clean-test accuracy {evaluate(params, test, feat):.4f}")

# co-teaching: two networks exchange their small-loss instances
sched = CoteachSchedule(tau=0.35, ramp_steps=120)
net1, net2, history = train_coteaching(train, val, cfg, sched, feat)
noisy = train.gold() != train.observed()
post = [h for h in history if h["step"] > sched.ramp_steps]
batch_frac = np.mean([noisy[h["batch_indices"]].mean() for h in post])
kept_frac = np.mean([noisy[h["kept_net1"]].mean() for h in post])
print(f"\nco-teaching: post-ramp batches are {batch_frac:.1%} noisy, "
      f"the kept sets only {kept_frac:.1%}")
print(f"  clean-test accuracy {evaluate(net1, test, feat):.4f}")

# consensus training: two heads on one encoder, updated where they agree;
# like every model, it is scored by the mean of its heads' probabilities
params, history = train_ceta(train, val, cfg, CetaConfig(lambda_w=0.1), feat)
consensus = np.mean([h["consensus_fraction"] for h in history[-50:]])
print(f"\nconsensus training: late consensus fraction {consensus:.2f}")
print(f"  clean-test accuracy {evaluate(params, test, feat):.4f}")
