"""Training regimes: vanilla with early stopping, co-teaching, and consensus
training with two heads over a shared encoder.

Every run is deterministic given its TrainConfig. Batch order is drawn from
cfg.seed while parameter init and dropout are drawn from cfg.init_seed
(defaulting to cfg.seed); co-teaching relies on this split so that its two
networks can share one batch schedule while being seeded independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
from scipy import sparse

from .data import Dataset
from .errors import ConsensusCollapseError, ValidationError
from .model import (Featurizer, ModelParams, TrainConfig, _encode, _forward,
                    _mean_ce_and_grads, _row_losses, apply_grads,
                    backward_from_logit_grads, evaluate_features, featurize_dataset,
                    init_params, mean_ce_and_grads)
from .util import derive_rng

MEMBER_METHODS = ("vanilla", "coteaching", "ceta")


def total_variation(p: np.ndarray, q: np.ndarray) -> np.ndarray | float:
    """Distance between categorical distributions under the 0/1 ground metric:
    half the L1 difference. 0 for identical inputs, 1 for disjoint support."""
    d = 0.5 * np.abs(np.asarray(p) - np.asarray(q)).sum(axis=-1)
    return float(d) if np.ndim(d) == 0 else d


class EarlyStopState:
    """Best-so-far validation accuracy with snapshots of the nets, copied
    once when the state is built and overwritten in place on each
    improvement; a snapshot holds its net's effective encoder at scale 1.0."""

    def __init__(self, *nets: ModelParams):
        self.best_val_accuracy = -math.inf
        self.evals_since_improvement = 0
        self.best_snapshots = tuple(p.copy() for p in nets)

    def update(self, accuracy: float, *params: ModelParams) -> bool:
        """Record one evaluation; returns True on improvement."""
        if accuracy > self.best_val_accuracy:
            self.best_val_accuracy = accuracy
            for snap, p in zip(self.best_snapshots, params):
                np.multiply(p.encoder, p.encoder_scale, out=snap.encoder)
                for dst, src in zip(snap.heads, p.heads):
                    np.copyto(dst.weights, src.weights)
                    np.copyto(dst.bias, src.bias)
            self.evals_since_improvement = 0
            return True
        self.evals_since_improvement += 1
        return False


class _CSRRows(NamedTuple):
    """Rows of a CSR matrix as its raw arrays: the four attributes of a
    csr_array that the model's kernels read, without a scipy object's
    construction and format checks."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]


def _take_rows(x, idx: np.ndarray) -> _CSRRows:
    """x[idx] on the raw arrays: the rows at idx, in that order, each with
    its indices and values in order, as scipy's row take gives them."""
    starts = x.indptr[idx]
    lengths = x.indptr[idx + 1] - starts
    indptr = np.zeros(len(idx) + 1, dtype=x.indptr.dtype)
    np.cumsum(lengths, out=indptr[1:])
    pos = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
    return _CSRRows(x.data[pos], x.indices[pos], indptr, (len(idx), x.shape[1]))


class _Batcher:
    """Endless seeded minibatches: reshuffle each epoch, drop ragged tails.

    An epoch's rows are gathered from x once, and each batch is a contiguous
    row slice of that gather's arrays: the same rows, indices and values, in
    the same order, as x[batch].
    """

    def __init__(self, x: sparse.csr_array, y: np.ndarray, batch_size: int,
                 rng: np.random.Generator):
        self.x, self.y, self.rng = x, y, rng
        self.batch_size = min(batch_size, x.shape[0])
        self.steps_per_epoch = max(1, x.shape[0] // self.batch_size)
        self._step = self.steps_per_epoch

    def next(self) -> tuple[np.ndarray, _CSRRows, np.ndarray]:
        """The next batch's row indexes into x, its rows and its labels."""
        if self._step == self.steps_per_epoch:
            self._perm = self.rng.permutation(self.x.shape[0])[
                :self.steps_per_epoch * self.batch_size]
            self._x, self._y, self._step = self.x[self._perm], self.y[self._perm], 0
        a = self._step * self.batch_size
        b = a + self.batch_size
        self._step += 1
        x = self._x
        lo, hi = x.indptr[a], x.indptr[b]
        rows = _CSRRows(x.data[lo:hi], x.indices[lo:hi], x.indptr[a:b + 1] - lo,
                       (self.batch_size, x.shape[1]))
        return self._perm[a:b], rows, self._y[a:b]


@dataclass(frozen=True, eq=False)
class Featurized:
    """Train and validation splits as feature rows plus observed labels.

    Noise only rewrites labels, so a split is featurized once and every
    subset a caller trains on (a fold complement, a cleaned set, a boosting
    subset) is a row slice of it. CSR row slicing keeps each row's indices,
    values and order, so a slice trains exactly like the featurized subset.
    """

    featurizer: Featurizer
    x: sparse.csr_array
    y: np.ndarray
    x_val: sparse.csr_array
    y_val: np.ndarray
    n_labels: int

    @classmethod
    def of(cls, featurizer: Featurizer, train: Dataset, val: Dataset
           ) -> "Featurized":
        if train.label_set.names != val.label_set.names:
            raise ValidationError("train and validation label sets differ")
        if len(train) == 0 or len(val) == 0:
            raise ValidationError("train and validation sets must be non-empty")
        return cls(featurizer, featurize_dataset(featurizer, train),
                   train.observed(), featurize_dataset(featurizer, val),
                   val.observed(), len(train.label_set))

    def rows(self, idx: np.ndarray) -> "Featurized":
        """The training rows at idx, in that order; validation unchanged."""
        return replace(self, x=self.x[idx], y=self.y[idx])

    def __len__(self) -> int:
        return self.x.shape[0]


def _train_loop(data: Featurized, cfg: TrainConfig, n_nets: int, n_heads: int,
                objective: Callable) -> tuple[tuple[ModelParams, ...], list[dict]]:
    """The minibatch loop of every method (_train is its one caller): it
    sets up the nets, feeds them batches and applies their updates.

    Net i has n_heads heads, is initialized from the init seed + i and draws
    its dropout from derive_rng(init seed + i, "dropout"). Each step,
    objective(step, nets, dropout, batch, xb, yb, steps_per_epoch) gets one
    batch (its row indexes into data.x, those rows and their labels) and
    returns the step's history fields, which follow "step" in its row, and
    one Grads per net, applied in net order. Every cfg.eval_every steps and
    at the last step, the loop scores nets[0] on the validation split,
    snapshots all nets on improvement and stops after cfg.patience
    evaluations without one. Returns the best snapshots and the history.
    """
    init_seed = cfg.seed if cfg.init_seed is None else cfg.init_seed
    seeds = [init_seed + i for i in range(n_nets)]
    nets = [init_params(data.featurizer, data.n_labels, cfg.hidden_size, n_heads,
                        cfg.drop_rate, seed=s) for s in seeds]
    dropout = [derive_rng(s, "dropout") for s in seeds]
    batcher = _Batcher(data.x, data.y, cfg.batch_size, derive_rng(cfg.seed, "batches"))
    state = EarlyStopState(*nets)
    history: list[dict] = []
    for step in range(1, cfg.steps + 1):
        fields, grads = objective(step, nets, dropout, *batcher.next(),
                                  batcher.steps_per_epoch)
        row = {"step": step, **fields}
        for net in nets:  # popping frees each net's gradients once applied
            apply_grads(net, grads.pop(0), cfg.effective_lr(step), cfg.weight_decay)
        history.append(row)
        if step % cfg.eval_every == 0 or step == cfg.steps:
            acc = evaluate_features(nets[0], data.x_val, data.y_val)
            state.update(acc, *nets)
            row["val_accuracy"] = acc
            if state.evals_since_improvement >= cfg.patience:
                break
    return state.best_snapshots, history


# ---------------------------------------------------------------------------
# Vanilla
# ---------------------------------------------------------------------------


def train_vanilla(train: Dataset, val: Dataset, cfg: TrainConfig,
                  featurizer: Featurizer) -> tuple[ModelParams, list[dict]]:
    """SGD on the observed labels, early-stopped on validation accuracy.

    Returns the parameter snapshot with the best validation accuracy seen,
    plus a per-step history of batch losses and evaluation results.
    """
    (best,), history = _train("vanilla", Featurized.of(featurizer, train, val), cfg)
    return best, history


def _vanilla_objective(_, nets, dropout, __, xb, yb, ___):
    loss, grads = mean_ce_and_grads(nets[0], xb, yb, scale_rng=dropout[0],
                                    train_mode=True)
    return {"train_batch_loss": loss}, [grads]


# ---------------------------------------------------------------------------
# Co-teaching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoteachSchedule:
    """Forget rate ramps linearly from 0 to tau over ramp_steps. tau < 1,
    so every step keeps at least one instance of its batch."""

    tau: float = 0.35
    ramp_steps: int = 120

    def __post_init__(self):
        if not 0.0 <= self.tau < 1.0 or self.ramp_steps < 0:
            raise ValidationError("need 0 <= tau < 1 and ramp_steps >= 0")

    def forget_rate(self, step: int) -> float:
        if self.ramp_steps <= 0:
            return self.tau
        return self.tau * min(1.0, step / self.ramp_steps)


def train_coteaching(
    train: Dataset, val: Dataset, cfg: TrainConfig, sched: CoteachSchedule,
    featurizer: Featurizer,
) -> tuple[ModelParams, ModelParams, list[dict]]:
    """Two independently seeded networks exchanging small-loss instances.

    Per shared minibatch each network ranks instances by its own
    evaluation-mode loss and keeps the ceil((1 - forget_rate) * batch) with
    the smallest loss; each network is then updated on the OTHER network's
    kept set. Early stopping watches network 1's validation accuracy; both
    networks' best snapshots are returned.
    """
    (best1, best2), history = _train(
        "coteaching", Featurized.of(featurizer, train, val), cfg, sched)
    return best1, best2, history


def _coteaching_objective(sched: CoteachSchedule) -> Callable:
    def objective(step, nets, dropout, batch, xb, yb, _):
        keep = math.ceil((1.0 - sched.forget_rate(step)) * len(batch))
        # simultaneous small-loss selection, then crossed gradients; each
        # reads only its own net and dropout stream, and each net's update
        # reuses its scoring pass's rows (a CSR row's pre-activations do not
        # depend on the other rows)
        pres = [_encode(net, xb) for net in nets]
        kept = [np.sort(np.argsort(_row_losses(net, pre, yb), kind="stable")[:keep])
                for net, pre in zip(nets, pres)]
        losses, grads = zip(*(
            _mean_ce_and_grads(net, _take_rows(xb, k), pre[k], yb[k], rng, True)
            for net, pre, k, rng in zip(nets, pres, kept[::-1], dropout)))
        return {
            "train_batch_loss": losses[0],
            "train_batch_loss_net2": losses[1],
            "kept_fraction": keep / len(batch),
            "batch_indices": batch.tolist(),
            "kept_net1": batch[kept[0]].tolist(),
            "kept_net2": batch[kept[1]].tolist(),
        }, list(grads)

    return objective


# ---------------------------------------------------------------------------
# Consensus training (shared encoder, two discrepant heads)
# ---------------------------------------------------------------------------

CONSENSUS_RULES = ("heads_agree", "heads_agree_with_label")


@dataclass(frozen=True)
class CetaConfig:
    """Consensus rule plus the weight of the distribution-alignment term.

    The alignment term is the total-variation distance between the two
    heads' probabilities, averaged over the whole batch; it acts as a
    secondary criterion next to the consensus cross-entropy.
    """

    consensus_rule: str = "heads_agree"
    lambda_w: float = 0.1

    def __post_init__(self):
        if self.consensus_rule not in CONSENSUS_RULES:
            raise ValidationError(f"consensus_rule must be one of {CONSENSUS_RULES}")
        if not 0 <= self.lambda_w < math.inf:
            raise ValidationError("lambda_w must be finite and >= 0")


def _tv_logit_grad(p_self: np.ndarray, p_other: np.ndarray,
                   coeff: float) -> np.ndarray:
    """d(coeff * sum_i TV_i)/d(logits of p_self) via the softmax Jacobian."""
    g = coeff * 0.5 * np.sign(p_self - p_other)
    return p_self * (g - (g * p_self).sum(axis=1, keepdims=True))


def ceta_batch_objective(params: ModelParams, x, y: np.ndarray, ceta: CetaConfig,
                         scale_rng=None, train_mode: bool = False):
    """Consensus loss, its gradients, and the consensus mask for one batch.

    loss = mean over consensus instances of both heads' cross-entropy, plus
    lambda_w times the batch-mean total variation between the heads.

    Dropout is drawn independently per head (not shared), which keeps the two
    classifiers discrepant during training; without this the heads converge
    and the consensus filter stops selecting anything.
    """
    if params.n_heads != 2:
        raise ValidationError("consensus training needs exactly 2 heads")
    y = np.asarray(y, dtype=np.int64)
    b = x.shape[0]
    hidden, scales, logps = _forward(params, _encode(params, x), 2, train_mode,
                                     scale_rng)
    probs = [np.exp(lp) for lp in logps]

    consensus = probs[0].argmax(axis=1) == probs[1].argmax(axis=1)
    if ceta.consensus_rule == "heads_agree_with_label":
        consensus = consensus & (probs[0].argmax(axis=1) == y)
    n_cons = int(consensus.sum())

    rows = np.arange(b)
    tv = total_variation(probs[0], probs[1])
    loss = float(ceta.lambda_w * tv.mean())
    logit_grads = {
        0: _tv_logit_grad(probs[0], probs[1], ceta.lambda_w / b),
        1: _tv_logit_grad(probs[1], probs[0], ceta.lambda_w / b),
    }
    if n_cons:
        for h in (0, 1):
            loss += float(-logps[h][rows, y][consensus].mean())
            g = probs[h].copy()
            g[rows, y] -= 1.0
            g[~consensus] = 0.0
            logit_grads[h] += g / n_cons

    grads = backward_from_logit_grads(params, x, hidden, scales, logit_grads)
    return loss, grads, consensus, float(tv.mean())


def train_ceta(
    train: Dataset, val: Dataset, cfg: TrainConfig, ceta: CetaConfig,
    featurizer: Featurizer,
) -> tuple[ModelParams, list[dict]]:
    """Two heads over one encoder, updated only where the heads agree.

    Early stopping watches the validation accuracy of the head-averaged
    probabilities. Raises ConsensusCollapseError when no instance reaches
    consensus for an entire epoch.
    """
    (best,), history = _train("ceta", Featurized.of(featurizer, train, val), cfg,
                              ceta=ceta)
    return best, history


def _ceta_objective(ceta: CetaConfig) -> Callable:
    empty_streak = 0

    def objective(_, nets, dropout, __, xb, yb, steps_per_epoch):
        nonlocal empty_streak
        loss, grads, consensus, tv_mean = ceta_batch_objective(
            nets[0], xb, yb, ceta, scale_rng=dropout[0], train_mode=True)
        empty_streak = 0 if consensus.any() else empty_streak + 1
        if empty_streak >= steps_per_epoch:
            raise ConsensusCollapseError(
                f"no consensus for {empty_streak} consecutive batches "
                "(a full epoch); lambda_w or the initialization is pathological")
        return {
            "train_batch_loss": loss,
            "consensus_fraction": float(consensus.mean()),
            "tv_mean": tv_mean,
        }, [grads]

    return objective


def _train(method: str, data: Featurized, cfg: TrainConfig,
           coteach: CoteachSchedule = CoteachSchedule(),
           ceta: CetaConfig = CetaConfig()
           ) -> tuple[tuple[ModelParams, ...], list[dict]]:
    """One run of a MEMBER_METHODS method: every net's best snapshot
    (co-teaching: network 1, then network 2) and the history."""
    if method == "vanilla":
        return _train_loop(data, cfg, 1, 1, _vanilla_objective)
    if method == "coteaching":
        return _train_loop(data, cfg, 2, 1, _coteaching_objective(coteach))
    return _train_loop(data, cfg, 1, 2, _ceta_objective(ceta))
