"""Built-in lightweight text classifier: hashed n-gram features feeding a
one-hidden-layer network with a shared encoder and one or more softmax heads.

The two-head configuration exists so consensus training can run two discrepant
classifiers over a single encoder; vanilla training uses one head.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass
from functools import partial
from itertools import chain, repeat
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

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


# The one kept memo of n-gram hashes, for the hash seed of the call that left
# it; stable_hash is pure, so a memo cannot change a result. A call holds
# _memo_lock while it takes the memo out of the slot (or a fresh one when the
# slot is empty or holds another seed), looks its n-grams up and puts it back,
# which it does only when the memo then holds at most _GRAM_HASH_CAP n-grams.
_GRAM_HASH_CAP = 2**18
_memo: _GramMemo | None = None
_memo_lock = threading.Lock()
_NO_KEY = 2**63 - 1  # sorts after every key, so a lookup never runs off the table


class _GramMemo:
    """The distinct n-grams of one hash seed, as integer ids.

    tokens maps a token to the id of its unigram. A longer n-gram's key is
    prefix id * 2**31 + last token id; keys is sorted and key_ids holds each
    key's id. hashes[id] is stable_hash("k:gram", seed).
    """

    def __init__(self, seed: int):
        self.seed, self.size = seed, 0
        self.tokens: dict[str, int] = {}
        self.keys = np.array([_NO_KEY], np.int64)
        self.key_ids = np.array([-1], np.int64)
        self.hashes = np.empty(1024, np.uint64)

    def _add(self, hashes: list[int]) -> int:
        """The first of the new ids these hashes get."""
        start, stop = self.size, self.size + len(hashes)
        if stop > len(self.hashes):
            self.hashes = np.resize(self.hashes, max(stop, 2 * len(self.hashes)))
        self.hashes[start:stop] = hashes
        self.size = stop
        return start

    def _token_ids(self, tokens: list[str]) -> np.ndarray:
        """Each token's id."""
        ids = np.fromiter(map(self.tokens.get, tokens, repeat(-1)), np.int64,
                          len(tokens))
        missing = np.flatnonzero(ids < 0).tolist()
        if missing:
            new = dict.fromkeys(tokens[i] for i in missing)
            start = self._add([stable_hash(f"1:{token}", self.seed) for token in new])
            self.tokens.update(zip(new, range(start, self.size)))
            ids[missing] = [self.tokens[tokens[i]] for i in missing]
        return ids

    def _gram_ids(self, keys: np.ndarray, order: int, tokens: list[str],
                  starts: np.ndarray) -> np.ndarray:
        """The ids of n-grams of one order by key; the i-th starts at
        tokens[starts[i]]."""
        by_key = np.argsort(keys)  # searchsorted is about 3x faster over sorted keys
        at = np.empty_like(by_key)
        at[by_key] = np.searchsorted(self.keys, keys[by_key])
        ids, missing = self.key_ids[at], np.flatnonzero(self.keys[at] != keys)
        if len(missing):
            new_keys, first, inverse = np.unique(
                keys[missing], return_index=True, return_inverse=True)
            start = self._add(
                [stable_hash(f"{order}:" + " ".join(tokens[s:s + order]), self.seed)
                 for s in starts[missing[first]].tolist()])
            new_ids = np.arange(start, self.size)
            at = np.searchsorted(self.keys, new_keys)
            self.keys = np.insert(self.keys, at, new_keys)
            self.key_ids = np.insert(self.key_ids, at, new_ids)
            ids[missing] = new_ids[inverse]
        return ids

    def occurrences(self, orders: tuple[int, ...], tokens: list[str],
                    lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The row and hash of every occurrence of a requested n-gram; every
        token must be encodable as UTF-8."""
        ids = self._token_ids(tokens)
        rows = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        # room[i]: the tokens from i to the end of its text
        room = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(tokens))
        top = max((o for o in orders if o <= lengths.max(initial=0)), default=0)
        starts, grams = np.arange(len(tokens)), ids
        found_rows, found_ids = [], []
        for order in range(1, top + 1):
            if order > 1:
                keep = room[starts] >= order
                starts, grams = starts[keep], grams[keep]
                grams = self._gram_ids(grams * 2**31 + ids[starts + order - 1],
                                       order, tokens, starts)
            if order in orders:
                found_rows.append(rows[starts])
                found_ids.append(grams)
        empty = [np.empty(0, np.int64)]
        return np.concatenate(found_rows or empty), \
            self.hashes[np.concatenate(found_ids or empty)]


def featurize_texts(featurizer: Featurizer, texts: list[str]) -> sparse.csr_array:
    """Stack of hashed n-gram rows; repeated n-grams accumulate weight.

    A call looks each token up once in its hash seed's memo and every longer
    n-gram by an integer key of its prefix's id and its last token's id, so
    it builds a string only for an n-gram new to the memo. The work grows
    with the longest text, not the largest order: an order longer than every
    text adds no feature. Raises ValidationError when texts x hash_dim
    reaches 2**63, or for the first text with a requested n-gram UTF-8
    cannot encode; a text too short for every order has none. Both are
    decided before the memo is touched.
    """
    global _memo
    seed, dim, n = featurizer.hash_seed, featurizer.hash_dim, len(texts)
    if max(n, 1) * dim >= 2**63:
        raise ValidationError(f"hash_dim {dim} is too large for {n} texts: "
                              "texts x hash_dim must be below 2**63")
    orders = featurizer.ngram_orders
    token_lists = [text.lower().split() for text in texts]
    try:
        "".join(texts).encode("utf-8")
    except UnicodeEncodeError:
        for i, text in enumerate(texts):
            try:
                text.encode("utf-8")
            except UnicodeEncodeError:
                # a text of at least orders[0] tokens has every token in a
                # requested n-gram
                if len(token_lists[i]) >= orders[0]:
                    raise ValidationError(f"text {i} is not encodable as UTF-8 "
                                          "(surrogates not allowed)") from None
                token_lists[i] = []
    lengths = np.fromiter(map(len, token_lists), np.int64, n)
    tokens = list(chain.from_iterable(token_lists))
    with _memo_lock:
        memo, _memo = _memo, None
        if memo is None or memo.seed != seed:
            memo = _GramMemo(seed)
        rows, hashes = memo.occurrences(orders, tokens, lengths)
        if memo.size <= _GRAM_HASH_CAP:
            _memo = memo
    # one sort over (row, index) keys gives every row's sorted distinct indices
    cells = rows * dim + (hashes % dim).astype(np.int64)
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
    """Encoder matrix plus one weight/bias pair per softmax head.

    The effective encoder is encoder_scale * encoder: weight decay multiplies
    the scale rather than every row (Bottou, "Stochastic Gradient Descent
    Tricks", 2012, section 5.1), so an SGD step writes only its batch's rows.
    Every model that init_params draws, load_model reads or a trainer returns
    has scale 1.0; copy(), arrays() and checkpoints hold the product and
    leave the model as it is.
    """

    encoder: np.ndarray  # hash_dim x hidden, times encoder_scale
    heads: list[Head]
    drop_rate: float = 0.0
    encoder_scale: float = 1.0

    @property
    def n_heads(self) -> int:
        return len(self.heads)

    @property
    def n_labels(self) -> int:
        return self.heads[0].bias.shape[0]

    def copy(self) -> "ModelParams":
        """A scale-1.0 copy holding the effective encoder."""
        return ModelParams(self.encoder * self.encoder_scale,
                           [h.copy() for h in self.heads], self.drop_rate)

    def arrays(self) -> list[np.ndarray]:
        """The effective encoder (the model's own array at scale 1.0, else a
        new product), then each head's weights and bias."""
        encoder = self.encoder if self.encoder_scale == 1.0 \
            else self.encoder * self.encoder_scale
        return [encoder] + self._head_arrays()

    def _head_arrays(self) -> list[np.ndarray]:
        return [a for h in self.heads for a in (h.weights, h.bias)]

    def check_finite(self) -> None:
        if not np.isfinite(self.encoder_scale) or not all(
                np.isfinite(a).all() for a in [self.encoder] + self._head_arrays()):
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
    # a matrix of more bytes than an index can address cannot be drawn at all
    if max(featurizer.hash_dim, n_labels) * hidden_size * 8 > np.iinfo(np.intp).max:
        raise ValidationError(f"hidden_size {hidden_size} is too large for hash_dim "
                              f"{featurizer.hash_dim} and {n_labels} labels")
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
    """Pre-activations, before the ReLU and any dropout.

    x is a csr_array or a training batch with the same data, indices, indptr
    and shape; the product is scipy's CSR kernel, the one x @ encoder runs,
    called on those arrays so a batch needs no scipy object of its own. The
    encoder scale multiplies the product, not the encoder.
    """
    n_rows, hidden = x.shape[0], params.encoder.shape[1]
    # the kernel reads encoder rows by feature index unchecked
    if x.shape[1] != params.encoder.shape[0]:
        raise ValidationError(f"features have {x.shape[1]} columns but the encoder "
                              f"has {params.encoder.shape[0]} rows")
    pre = np.zeros((n_rows, hidden))
    _sparsetools.csr_matvecs(n_rows, x.shape[1], hidden, x.indptr, x.indices,
                             x.data, params.encoder.ravel(), pre.ravel())
    if params.encoder_scale != 1.0:
        pre *= params.encoder_scale
    return pre


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


def _forward(params: ModelParams, pre: np.ndarray, n_heads: int,
             train_mode: bool = False, rng: np.random.Generator | None = None):
    """The forward pass every loss and gradient runs, from the pre-activations
    _encode gives: the hidden layer (their ReLU), then the dropout scales and
    log-probabilities of the first n_heads heads. Each head draws its own
    dropout scale from rng, in head order."""
    hidden = np.maximum(pre, 0.0)
    scales = _dropout_scales(params, pre.shape, n_heads, train_mode, rng)
    logps = [_log_softmax(_head_logits(params, hidden if s is None else hidden * s, h))
             for h, s in enumerate(scales)]
    return hidden, scales, logps


def instance_losses(params: ModelParams, x: sparse.csr_array, y: np.ndarray
                    ) -> np.ndarray:
    """Per-row cross-entropy -log p(y) of head 0, computed in evaluation mode."""
    return _row_losses(params, _encode(params, x), y)


def _row_losses(params: ModelParams, pre: np.ndarray, y: np.ndarray) -> np.ndarray:
    _, _, [logp] = _forward(params, pre, 1)
    return -logp[np.arange(len(pre)), np.asarray(y, dtype=np.int64)]


@dataclass
class Grads:
    """One batch's head gradients and d_pre, the gradient of its
    pre-activations; apply_grads steps the encoder from x and d_pre."""

    x: sparse.csr_array  # the batch, or its raw CSR arrays
    d_pre: np.ndarray    # batch x hidden; the encoder's gradient is x.T @ d_pre
    heads: dict[int, tuple[np.ndarray, np.ndarray]]  # head -> (dW, db)


def backward_from_logit_grads(
    params: ModelParams,
    x: sparse.csr_array,
    hidden: np.ndarray,
    scales: list[np.ndarray | None],
    logit_grads: dict[int, np.ndarray],
) -> Grads:
    """Map d(loss)/d(logits) per head back to the head gradients and to
    d_pre = d(loss)/d(pre-activations), from which apply_grads steps the
    encoder. `hidden` and `scales` must be those of the _forward call that
    produced the logits: scales[head] is the dropout scale that head's
    hidden layer was multiplied by (None for none), so dropout is treated
    consistently between loss and gradient. The ReLU passes gradient where
    hidden > 0, which is where the pre-activation is.
    """
    d_hidden = np.zeros_like(hidden)
    head_grads: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for head, g in logit_grads.items():
        scale = scales[head]
        h = params.heads[head]
        head_hidden = hidden if scale is None else hidden * scale
        head_grads[head] = (head_hidden.T @ g, g.sum(axis=0))
        d_head = g @ h.weights.T
        d_hidden += d_head if scale is None else d_head * scale
    return Grads(x, d_hidden * (hidden > 0.0), head_grads)


def mean_ce_and_grads(params: ModelParams, x: sparse.csr_array, y: np.ndarray,
                      scale_rng: np.random.Generator | None = None,
                      train_mode: bool = False) -> tuple[float, Grads]:
    """Mean cross-entropy of head 0 over the batch, with its exact gradient.
    In train mode the dropout mask is drawn from scale_rng."""
    return _mean_ce_and_grads(params, x, _encode(params, x), y, scale_rng,
                              train_mode)


def _mean_ce_and_grads(params, x, pre, y, scale_rng, train_mode):
    y = np.asarray(y, dtype=np.int64)
    b = x.shape[0]
    hidden, scales, [logp] = _forward(params, pre, 1, train_mode, scale_rng)
    rows = np.arange(b)
    g = np.exp(logp)
    g[rows, y] -= 1.0
    return float(-logp[rows, y].mean()), backward_from_logit_grads(
        params, x, hidden, scales, {0: g / b})


# below this encoder scale, apply_grads folds the scale into the encoder
_SCALE_FLOOR = 0.5


def apply_grads(params: ModelParams, grads: Grads, lr_effective: float,
                weight_decay: float) -> None:
    """In-place SGD update with L2 decay on the weight matrices.

    The encoder's gradient x.T @ d_pre is never formed: scipy's CSC kernel
    (the one x.T @ d runs; x's CSR arrays are x.T's CSC arrays) adds the
    step -(lr_effective / encoder_scale) * d_pre straight into the stored
    encoder's batch rows. The decay then multiplies encoder_scale, which
    shrinks every row of the effective encoder; below _SCALE_FLOOR the scale
    is folded into the encoder and reset to 1.0, one dense pass in many
    steps. The step and the head gradients are checked, and an encoder the
    kernel cannot write in place refused, before any parameter changes.
    """
    if params.encoder.dtype != np.float64 or not params.encoder.flags.carray:
        raise ValidationError("the encoder must be a C-contiguous, writable "
                              "float64 array to be updated in place")
    step = grads.d_pre * (-lr_effective / params.encoder_scale)
    arrays = [step] + [a for pair in grads.heads.values() for a in pair]
    if not all(np.isfinite(a).all() for a in arrays):
        raise DivergenceError("non-finite gradients; reduce the learning rate")
    x = grads.x
    _sparsetools.csc_matvecs(x.shape[1], x.shape[0], step.shape[1], x.indptr,
                             x.indices, x.data, step.ravel(), params.encoder.ravel())
    decay = 1.0 - lr_effective * weight_decay
    if weight_decay:
        params.encoder_scale *= decay
        if params.encoder_scale < _SCALE_FLOOR:
            params.encoder *= params.encoder_scale
            params.encoder_scale = 1.0
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
    hidden = np.maximum(_encode(params, x), 0.0)
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
    little-endian float64; bit-exact, and equal params give equal bytes.
    Non-finite params raise DivergenceError before the file is opened."""
    params.check_finite()
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
