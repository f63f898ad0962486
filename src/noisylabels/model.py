"""Built-in lightweight text classifier: hashed n-gram features feeding a
one-hidden-layer network with a shared encoder and one or more softmax heads.

The two-head configuration exists so consensus training can run two discrepant
classifiers over a single encoder; vanilla training uses one head.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np
from scipy import sparse

from .data import Dataset
from .errors import DivergenceError, ValidationError
from .util import checked_call, stable_hash

CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class Featurizer:
    """Hashed bag of lowercased n-grams, L2-normalized per text."""

    hash_dim: int = 4096
    ngram_orders: tuple[int, ...] = (1, 2)
    hash_seed: int = 0

    def __post_init__(self):
        if self.hash_dim < 2 or self.hash_dim & (self.hash_dim - 1):
            raise ValidationError("hash_dim must be a power of two")
        orders = tuple(sorted(set(self.ngram_orders)))
        if not orders or any(o < 1 for o in orders):
            raise ValidationError("ngram_orders must be positive integers")
        if not -2**63 <= self.hash_seed < 2**63:
            raise ValidationError("hash_seed must be in [-2**63, 2**63)")
        object.__setattr__(self, "ngram_orders", orders)


# hash_seed -> space-joined n-gram -> stable_hash of the gram. Tokens hold no
# whitespace, so the number of spaces gives the order. stable_hash is pure, so
# the memo cannot change a result; only one seed's table is kept, and it is
# cleared when full, so it never holds more than _GRAM_HASH_CAP grams.
_GRAM_HASH_CAP = 2**18
_gram_hashes: dict[int, dict[str, int]] = {}


def featurize_texts(featurizer: Featurizer, texts: list[str]) -> sparse.csr_array:
    """Stack of hashed n-gram rows; repeated n-grams accumulate weight."""
    seed, dim, n = featurizer.hash_seed, featurizer.hash_dim, len(texts)
    table = _gram_hashes.get(seed)
    if table is None:
        _gram_hashes.clear()
        table = _gram_hashes[seed] = {}
    hashes: list[int] = []
    lengths: list[int] = []
    try:
        for row, text in enumerate(texts):
            tokens = text.lower().split()
            start = len(hashes)
            for order in featurizer.ngram_orders:
                for gram in map(" ".join, zip(*(tokens[i:] for i in range(order)))):
                    h = table.get(gram)
                    if h is None:
                        if len(table) >= _GRAM_HASH_CAP:
                            table.clear()
                        h = table[gram] = stable_hash(f"{order}:{gram}", seed)
                    hashes.append(h)
            lengths.append(len(hashes) - start)
    except UnicodeEncodeError as exc:
        raise ValidationError(f"text {row} is not encodable as UTF-8 ({exc.reason})") \
            from None
    # one sort over (row, index) keys gives every row's sorted distinct indices
    cells = np.repeat(np.arange(n, dtype=np.int64) * dim, lengths) \
        + (np.array(hashes, dtype=np.uint64) % dim).astype(np.int64)
    cells, counts = np.unique(cells, return_counts=True)
    indptr = np.searchsorted(cells, np.arange(n + 1, dtype=np.int64) * dim)
    # exact integer sums of squares, so the norms match np.linalg.norm bit for bit
    squares = np.concatenate(([0], np.cumsum(counts * counts)))
    norms = np.sqrt(squares[indptr[1:]] - squares[indptr[:-1]])
    return sparse.csr_array(
        (counts / np.repeat(norms, np.diff(indptr)), cells % dim, indptr),
        shape=(n, dim),
    )


def featurize_dataset(featurizer: Featurizer, dataset: Dataset) -> sparse.csr_array:
    return featurize_texts(featurizer, dataset.texts())


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one SGD training run.

    learning_rate warms up linearly over warmup_steps when that is positive.
    eval_every controls how often the validation set is scored for early
    stopping; patience counts evaluations without improvement. seed drives
    batch order; init_seed (defaulting to seed) drives parameter init and
    dropout, so two runs can share a batch schedule yet differ in weights.
    The defaults are desk scale, and every preset trains with them: the
    built-in model trains in hundreds of steps at learning rates far above
    transformer scale.
    """

    steps: int = 600
    learning_rate: float = 0.5
    patience: int = 8
    warmup_steps: int = 0
    weight_decay: float = 1e-4
    drop_rate: float = 0.1
    batch_size: int = 32
    eval_every: int = 25
    seed: int = 0
    hidden_size: int = 64
    init_seed: int | None = None

    def __post_init__(self):
        if self.steps <= 0 or self.patience < 1 or self.batch_size < 1 \
                or self.eval_every < 1 or self.hidden_size < 1:
            raise ValidationError("steps, patience, batch_size, eval_every and "
                                  "hidden_size must be positive")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValidationError("drop_rate must be in [0, 1)")
        if not (0 < self.learning_rate < np.inf and 0 <= self.weight_decay < np.inf) \
                or self.warmup_steps < 0:
            raise ValidationError("bad learning_rate/warmup_steps/weight_decay")

    def effective_lr(self, step: int) -> float:
        if self.warmup_steps > 0:
            return self.learning_rate * min(1.0, step / self.warmup_steps)
        return self.learning_rate


@dataclass
class Head:
    weights: np.ndarray  # hidden x classes
    bias: np.ndarray     # classes

    def copy(self) -> "Head":
        return Head(self.weights.copy(), self.bias.copy())


@dataclass
class ModelParams:
    """Encoder matrix plus one weight/bias pair per softmax head."""

    encoder: np.ndarray  # hash_dim x hidden
    heads: list[Head]
    drop_rate: float = 0.0

    @property
    def n_heads(self) -> int:
        return len(self.heads)

    @property
    def n_labels(self) -> int:
        return self.heads[0].bias.shape[0]

    def copy(self) -> "ModelParams":
        return ModelParams(self.encoder.copy(), [h.copy() for h in self.heads],
                           self.drop_rate)

    def arrays(self) -> list[np.ndarray]:
        """The encoder, then each head's weights and bias."""
        return [self.encoder] + [a for h in self.heads for a in (h.weights, h.bias)]

    def check_finite(self) -> None:
        if not all(np.isfinite(a).all() for a in self.arrays()):
            raise DivergenceError("non-finite model parameters")


def init_params(
    featurizer: Featurizer,
    n_labels: int,
    hidden_size: int,
    n_heads: int = 1,
    drop_rate: float = 0.0,
    seed: int = 0,
) -> ModelParams:
    """Seeded Gaussian init; head h is drawn from seed + 1 + h."""
    if n_labels < 2 or n_heads < 1 or hidden_size < 1:
        raise ValidationError("need n_labels >= 2, n_heads >= 1, hidden_size >= 1")
    if not 0.0 <= drop_rate < 1.0:
        raise ValidationError("drop_rate must be in [0, 1)")
    enc_rng = np.random.default_rng(np.random.SeedSequence([seed % 2**64, 0]))
    encoder = enc_rng.normal(0.0, 0.2, size=(featurizer.hash_dim, hidden_size))
    heads = []
    for h in range(n_heads):
        head_seed = (seed + 1 + h) % 2**64
        rng = np.random.default_rng(np.random.SeedSequence([head_seed, 1]))
        heads.append(Head(rng.normal(0.0, 0.2, size=(hidden_size, n_labels)),
                          np.zeros(n_labels)))
    return ModelParams(encoder, heads, drop_rate)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _encode(params: ModelParams, x: sparse.csr_array):
    """Pre-activations and their ReLU, before any dropout."""
    pre = x @ params.encoder
    return pre, np.maximum(pre, 0.0)


def _dropout_scales(params: ModelParams, shape: tuple[int, ...], n: int,
                    train_mode: bool, rng: np.random.Generator | None
                    ) -> list[np.ndarray | None]:
    """n independent inverted-dropout scales drawn in order from rng, or n
    Nones when no dropout applies (evaluation mode or drop_rate 0)."""
    if not train_mode or params.drop_rate <= 0.0:
        return [None] * n
    if rng is None:
        raise ValidationError("train-mode forward with dropout needs an rng")
    keep = 1.0 - params.drop_rate
    return [(rng.random(shape) < keep) / keep for _ in range(n)]


def _head_logits(params: ModelParams, hidden: np.ndarray, head: int) -> np.ndarray:
    h = params.heads[head]
    return hidden @ h.weights + h.bias


def _forward(params: ModelParams, x: sparse.csr_array, n_heads: int,
             train_mode: bool = False, rng: np.random.Generator | None = None):
    """The forward pass every loss and gradient runs: the pre-activations,
    then the dropout scales and log-probabilities of the first n_heads heads.
    Each head draws its own dropout scale from rng, in head order."""
    pre, hidden = _encode(params, x)
    scales = _dropout_scales(params, pre.shape, n_heads, train_mode, rng)
    logps = [_log_softmax(_head_logits(params, hidden if s is None else hidden * s, h))
             for h, s in enumerate(scales)]
    return pre, scales, logps


def instance_losses(params: ModelParams, x: sparse.csr_array, y: np.ndarray
                    ) -> np.ndarray:
    """Per-row cross-entropy -log p(y) of head 0, computed in evaluation mode."""
    _, _, [logp] = _forward(params, x, 1)
    y = np.asarray(y, dtype=np.int64)
    return -logp[np.arange(x.shape[0]), y]


@dataclass
class Grads:
    rows: np.ndarray     # the batch's distinct feature indices, ascending
    encoder: np.ndarray  # len(rows) x hidden, for encoder[rows]; other rows get 0
    heads: dict[int, tuple[np.ndarray, np.ndarray]]  # head -> (dW, db)


def backward_from_logit_grads(
    params: ModelParams,
    x: sparse.csr_array,
    pre: np.ndarray,
    scales: list[np.ndarray | None],
    logit_grads: dict[int, np.ndarray],
) -> Grads:
    """Map d(loss)/d(logits) per head back to parameter gradients.

    `pre` and `scales` must come from the _forward call that produced the
    logits: scales[head] is the dropout scale that head's hidden layer was
    multiplied by (None for none), so dropout is treated consistently
    between loss and gradient.
    """
    hidden = np.maximum(pre, 0.0)
    d_hidden = np.zeros_like(hidden)
    head_grads: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for head, g in logit_grads.items():
        scale = scales[head]
        h = params.heads[head]
        head_hidden = hidden if scale is None else hidden * scale
        head_grads[head] = (head_hidden.T @ g, g.sum(axis=0))
        d_head = g @ h.weights.T
        d_hidden += d_head if scale is None else d_head * scale
    d_pre = d_hidden * (pre > 0.0)
    # x.T restricted to x's distinct columns, which slot[] numbers in
    # ascending order: each block row sums over the batch rows in the same
    # order as x.T @ d_pre, so the bits match
    mark = np.zeros(x.shape[1], dtype=bool)
    mark[x.indices] = True
    rows = np.flatnonzero(mark)
    slot = np.empty(x.shape[1], dtype=np.intp)
    slot[rows] = np.arange(len(rows))
    xt = sparse.csc_array((x.data, slot[x.indices], x.indptr),
                          shape=(len(rows), x.shape[0]))
    return Grads(rows, xt @ d_pre, head_grads)


def mean_ce_and_grads(params: ModelParams, x: sparse.csr_array, y: np.ndarray,
                      scale_rng: np.random.Generator | None = None,
                      train_mode: bool = False) -> tuple[float, Grads]:
    """Mean cross-entropy of head 0 over the batch, with its exact gradient.
    In train mode the dropout mask is drawn from scale_rng."""
    y = np.asarray(y, dtype=np.int64)
    b = x.shape[0]
    pre, scales, [logp] = _forward(params, x, 1, train_mode, scale_rng)
    rows = np.arange(b)
    g = np.exp(logp)
    g[rows, y] -= 1.0
    return float(-logp[rows, y].mean()), backward_from_logit_grads(
        params, x, pre, scales, {0: g / b})


def apply_grads(params: ModelParams, grads: Grads, lr_effective: float,
                weight_decay: float) -> None:
    """In-place SGD update with L2 decay on the weight matrices.

    Every gradient is checked before any parameter changes, so a
    DivergenceError leaves params untouched. The update consumes grads:
    grads.encoder is scaled by lr_effective in place, which gives the same
    bits as a scaled copy without allocating one per step. Only the rows in
    grads.rows take a gradient step; the decay still shrinks every row.
    """
    arrays = [grads.encoder] + [a for pair in grads.heads.values() for a in pair]
    if not all(np.isfinite(a).all() for a in arrays):
        raise DivergenceError("non-finite gradients; reduce the learning rate")
    decay = 1.0 - lr_effective * weight_decay
    grads.encoder *= lr_effective
    params.encoder[grads.rows] -= grads.encoder
    if weight_decay:
        params.encoder *= decay
    for head, (dw, db) in grads.heads.items():
        h = params.heads[head]
        h.weights -= lr_effective * dw
        h.bias -= lr_effective * db
        if weight_decay:
            h.weights *= decay


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def predict_probs(params: ModelParams, x: sparse.csr_array) -> np.ndarray:
    """Evaluation-mode probabilities: the mean of the heads' softmaxes, which
    for a one-head model is that head's softmax exactly."""
    params.check_finite()
    _, hidden = _encode(params, x)
    return np.mean([_softmax(_head_logits(params, hidden, h))
                    for h in range(params.n_heads)], axis=0)


def evaluate_features(params: ModelParams, x: sparse.csr_array, y: np.ndarray
                      ) -> float:
    """Accuracy of argmax predictions against y; ties break to the lowest
    label index."""
    if x.shape[0] == 0:
        raise ValidationError("cannot evaluate an empty dataset")
    y = np.asarray(y, dtype=np.int64)
    return float(np.mean(predict_probs(params, x).argmax(axis=1) == y))


def evaluate(params: ModelParams, dataset: Dataset, featurizer: Featurizer) -> float:
    """Accuracy of argmax predictions against the dataset's observed labels."""
    x = featurize_dataset(featurizer, dataset)
    return evaluate_features(params, x, dataset.observed())


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_read_npy = partial(np.lib.format.read_array, allow_pickle=False)


def save_model(path: str | Path, featurizer: Featurizer, params: ModelParams) -> None:
    """Version-2 checkpoint at exactly `path`: .npy records (NumPy NEP 1) of
    the JSON metadata, then the encoder and each head's weights and bias as
    little-endian float64; bit-exact, and equal params give equal bytes."""
    meta = {"version": CHECKPOINT_VERSION, "featurizer": asdict(featurizer),
            "drop_rate": params.drop_rate, "heads": params.n_heads}
    with open(path, "wb") as fh:
        for record in [np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)] + [
                np.ascontiguousarray(a, dtype="<f8") for a in params.arrays()]:
            np.lib.format.write_array(fh, record, allow_pickle=False)


def load_model(path: str | Path) -> tuple[Featurizer, ModelParams]:
    """Read a version-2 checkpoint, or a version-1 JSON one (told apart by the
    leading bytes); a missing or malformed file raises ValidationError."""
    try:
        with open(path, "rb") as fh:
            binary = fh.read(6) == b"\x93NUMPY"
            fh.seek(0)
            meta = json.loads(_read_npy(fh).tobytes() if binary else fh.read())
            version = meta.get("version") if isinstance(meta, dict) else None
            if version != (CHECKPOINT_VERSION if binary else 1):
                raise ValidationError(f"unsupported checkpoint version {version}")
            if binary:
                arrays = [_read_npy(fh) for _ in range(1 + 2 * max(meta["heads"], 0))]
                if fh.read(1):
                    raise ValidationError("trailing data after the last array")
            else:
                arrays = [np.array(a, dtype=np.float64) for a in [meta["encoder"]]
                          + [h[k] for h in meta["heads"] for k in ("weights", "bias")]]
        feat = checked_call(Featurizer, {k: meta["featurizer"][k] for k in (
            "hash_dim", "ngram_orders", "hash_seed")}, "'featurizer'")
        drop_rate = float(meta["drop_rate"])
        encoder, heads = arrays[0], [Head(w, b) for w, b in zip(arrays[1::2], arrays[2::2])]
        hidden = encoder.shape[-1] if encoder.ndim == 2 else -1
        labels = heads[0].bias.size if heads else -1
        shapes = [(feat.hash_dim, hidden)] + [(hidden, labels), (labels,)] * len(heads)
        if not heads or [a.shape for a in arrays] != shapes or not 0.0 <= drop_rate < 1.0 \
                or any(a.dtype != np.float64 or not np.isfinite(a).all() for a in arrays):
            raise ValidationError("arrays must be finite float64 with shapes that fit "
                                  "together, and drop_rate in [0, 1)")
    except OSError as exc:
        raise ValidationError(f"cannot read checkpoint {path}: {exc.strerror}") from None
    # MemoryError: an array header may declare more floats than any memory holds
    except (ValidationError, KeyError, TypeError, ValueError, OverflowError,
            MemoryError) as exc:
        what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValidationError(f"checkpoint {path}: {what}") from None
    return feat, ModelParams(encoder, heads, drop_rate)
