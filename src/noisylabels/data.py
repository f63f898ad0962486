"""Data model, corpus I/O, split management and a synthetic corpus generator.

Datasets are immutable after construction: every transform returns a new
Dataset, so they are safe to share across concurrent training runs.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataFormatError, ValidationError
from .util import derive_rng

SPLITS = ("train", "validation", "test")
LABELS_SIDECAR = "labels.txt"


@dataclass(frozen=True)
class LabelSet:
    """Ordered label vocabulary; the position of a name is its index."""

    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.names) < 2:
            raise ValidationError("a label set needs at least 2 labels")
        if len(set(self.names)) != len(self.names):
            raise ValidationError("label names must be unique")

    def __len__(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError(f"unknown label {name!r}") from None


@dataclass(frozen=True)
class Instance:
    """One text sample with an observed label and optional gold/annotator labels."""

    id: str
    text: str
    observed_label: int
    gold_label: int | None = None
    annotator_labels: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.annotator_labels is not None:
            object.__setattr__(self, "annotator_labels", tuple(self.annotator_labels))


@dataclass(frozen=True)
class Dataset:
    """A split-tagged collection of instances over a fixed label vocabulary."""

    label_set: LabelSet
    instances: tuple[Instance, ...]
    split: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))
        if self.split is not None and self.split not in SPLITS:
            raise ValidationError(f"split must be one of {SPLITS}, got {self.split!r}")
        k = len(self.label_set)
        seen: set[str] = set()
        for inst in self.instances:
            if inst.id in seen:
                raise ValidationError(f"duplicate instance id {inst.id!r}")
            seen.add(inst.id)
            labels = [inst.observed_label]
            if inst.gold_label is not None:
                labels.append(inst.gold_label)
            if inst.annotator_labels:
                labels.extend(inst.annotator_labels)
            for lab in labels:
                if not 0 <= lab < k:
                    raise ValidationError(
                        f"instance {inst.id!r}: label index {lab} out of range [0, {k})"
                    )

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self):
        return iter(self.instances)

    def texts(self) -> list[str]:
        return [inst.text for inst in self.instances]

    def observed(self) -> np.ndarray:
        return np.array([inst.observed_label for inst in self.instances], dtype=np.int64)

    def gold(self) -> np.ndarray:
        """Gold labels as an array; raises if any instance lacks one."""
        self.require_gold()
        return np.array([inst.gold_label for inst in self.instances], dtype=np.int64)

    def has_gold(self) -> bool:
        return all(inst.gold_label is not None for inst in self.instances)

    def require_gold(self) -> None:
        if not self.has_gold():
            raise ValidationError("operation requires gold labels on every instance")

    def with_split(self, split: str | None) -> "Dataset":
        return replace(self, split=split)

    def with_observed(self, observed: Sequence[int]) -> "Dataset":
        """Copy of the dataset with observed labels replaced positionally."""
        if len(observed) != len(self.instances):
            raise ValidationError("observed label array length mismatch")
        # unchanged instances are reused; the constructor is faster than replace
        new = tuple(
            inst if inst.observed_label == lab else
            Instance(inst.id, inst.text, lab, inst.gold_label, inst.annotator_labels)
            for inst, lab in zip(self.instances, map(int, observed))
        )
        return replace(self, instances=new)

    def select(self, indices: Iterable[int]) -> "Dataset":
        """Sub-dataset of the given instance positions, order preserved."""
        new = tuple(self.instances[i] for i in indices)
        return replace(self, instances=new)


@dataclass(frozen=True)
class SplitSpec:
    """Seeded three-way partition fractions; must sum to 1."""

    train_fraction: float = 0.7
    validation_fraction: float = 0.1
    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        fracs = (self.train_fraction, self.validation_fraction, self.test_fraction)
        if not all(0 <= f <= 1 for f in fracs):
            raise ValidationError("split fractions must lie in [0, 1]")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValidationError(f"split fractions must sum to 1, got {sum(fracs)}")


# ---------------------------------------------------------------------------
# Corpus I/O
#
# JSONL: one object per line: id, text, label, optional gold_label, optional
#        annotator_labels (all labels as strings).
# TSV:   header row `id  text  label  [gold_label]`; no annotator labels.
# Both:  optional sidecar labels.txt next to the file fixes the label order;
#        without it, order is first appearance. All writes UTF-8 with LF.
# ---------------------------------------------------------------------------


def _sidecar_path(path: Path) -> Path:
    return path.parent / LABELS_SIDECAR


def _read_text(path: Path) -> str:
    """The file as UTF-8 text; other bytes raise DataFormatError naming the line."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        prefix = data[:exc.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        raise DataFormatError(f"{path.name} is not UTF-8 ({exc.reason})",
                              line=prefix.count("\n") + 1) from None


def _read_sidecar(path: Path) -> list[str] | None:
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        return None
    names = [line.strip() for line in _read_text(sidecar).splitlines()]
    return [n for n in names if n]


class _LabelCollector:
    """Resolves label strings to indices, fixed by a sidecar or first appearance."""

    def __init__(self, fixed: list[str] | None):
        self.fixed = fixed is not None
        self.names: list[str] = list(fixed) if fixed else []
        self.index = {name: i for i, name in enumerate(self.names)}

    def resolve(self, name: str, line: int) -> int:
        if name in self.index:
            return self.index[name]
        if self.fixed:
            raise DataFormatError(
                f"label {name!r} not in the sidecar label list", line=line
            )
        self.index[name] = len(self.names)
        self.names.append(name)
        return self.index[name]


def load_dataset(path: str | Path, format: str = "jsonl") -> Dataset:
    """Read a corpus file into a validated Dataset, preserving row order."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"no such file: {path}")
    if format not in ("jsonl", "tsv"):
        raise ValidationError(f"format must be 'jsonl' or 'tsv', got {format!r}")
    labels = _LabelCollector(_read_sidecar(path))
    rows: list[Instance] = []
    seen_ids: set[str] = set()

    def check_id(row_id: str, line: int) -> None:
        if row_id in seen_ids:
            raise DataFormatError(f"duplicate id {row_id!r}", line=line)
        seen_ids.add(row_id)

    with io.StringIO(_read_text(path), newline=None) as fh:
        if format == "jsonl":
            for line_no, raw in enumerate(fh, start=1):
                if not raw.strip():
                    continue
                try:
                    obj = json.loads(raw)
                    # a \ud800-style escape decodes to a lone surrogate, which
                    # no UTF-8 output can hold
                    json.dumps(obj, ensure_ascii=False).encode("utf-8")
                except json.JSONDecodeError as exc:
                    raise DataFormatError(f"invalid JSON ({exc.msg})", line=line_no) from None
                except UnicodeEncodeError as exc:
                    raise DataFormatError(f"invalid unicode ({exc.reason})",
                                          line=line_no) from None
                if not isinstance(obj, dict) or "id" not in obj or "text" not in obj \
                        or "label" not in obj:
                    raise DataFormatError("object must have id, text and label fields",
                                          line=line_no)
                check_id(str(obj["id"]), line_no)
                observed = labels.resolve(str(obj["label"]), line_no)
                gold = None
                if obj.get("gold_label") is not None:
                    gold = labels.resolve(str(obj["gold_label"]), line_no)
                annotators = obj.get("annotator_labels")
                if annotators is not None:
                    if not isinstance(annotators, list):
                        raise DataFormatError("annotator_labels must be a list "
                                              "or null", line=line_no)
                    annotators = tuple(labels.resolve(str(a), line_no)
                                       for a in annotators)
                rows.append(Instance(str(obj["id"]), str(obj["text"]), observed,
                                     gold, annotators))
        else:
            header = fh.readline()
            columns = header.rstrip("\n").split("\t")
            if columns not in (["id", "text", "label"],
                               ["id", "text", "label", "gold_label"]):
                raise DataFormatError(
                    "header must be id<TAB>text<TAB>label[<TAB>gold_label]", line=1)
            has_gold = len(columns) == 4
            for line_no, raw in enumerate(fh, start=2):
                if not raw.strip():
                    continue
                parts = raw.rstrip("\n").split("\t")
                if len(parts) != len(columns):
                    raise DataFormatError(
                        f"expected {len(columns)} columns, found {len(parts)}",
                        line=line_no)
                check_id(parts[0], line_no)
                observed = labels.resolve(parts[2], line_no)
                gold = None
                if has_gold and parts[3] != "":
                    gold = labels.resolve(parts[3], line_no)
                rows.append(Instance(parts[0], parts[1], observed, gold))

    if len(labels.names) < 2:
        raise DataFormatError(f"corpus defines {len(labels.names)} label(s); need >= 2")
    return Dataset(LabelSet(tuple(labels.names)), tuple(rows))


def save_dataset(dataset: Dataset, path: str | Path, format: str = "jsonl") -> None:
    """Write a corpus file and its labels.txt sidecar.

    The sidecar pins the label order so save -> load -> save is byte-stable
    even when the label order is not first-appearance order.
    """
    path = Path(path)
    body, sidecar = _encoded(dataset, format)
    path.write_bytes(body)
    _sidecar_path(path).write_bytes(sidecar)


def _save_splits(splits: dict[str, Dataset], out_dir: Path, format: str) -> None:
    """Save each split as out_dir/<name>.<format>, with labels.txt. Every
    split is encoded before out_dir is made, so a split that cannot be
    saved leaves nothing behind."""
    encoded = {name: _encoded(split, format) for name, split in splits.items()}
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (body, sidecar) in encoded.items():
        (out_dir / f"{name}.{format}").write_bytes(body)
        (out_dir / LABELS_SIDECAR).write_bytes(sidecar)


def _encoded(dataset: Dataset, format: str) -> tuple[bytes, bytes]:
    """The corpus file's and the sidecar's bytes; ValidationError if the
    dataset cannot be saved in format."""
    if format not in ("jsonl", "tsv"):
        raise ValidationError(f"format must be 'jsonl' or 'tsv', got {format!r}")
    names = dataset.label_set.names
    # the sidecar is read back line by line with edge whitespace stripped
    unsaveable = [n for n in names if n.strip() != n or n.splitlines() != [n]
                  or (format == "tsv" and "\t" in n)]
    if unsaveable:
        raise ValidationError(f"label names {unsaveable} cannot be saved: a name "
                              "must be non-empty, with no edge whitespace, line "
                              "break, or (in TSV) tab")
    lines: list[str] = []
    if format == "jsonl":
        for inst in dataset.instances:
            obj: dict = {"id": inst.id, "text": inst.text,
                         "label": names[inst.observed_label]}
            if inst.gold_label is not None:
                obj["gold_label"] = names[inst.gold_label]
            if inst.annotator_labels is not None:
                obj["annotator_labels"] = [names[a] for a in inst.annotator_labels]
            lines.append(json.dumps(obj, ensure_ascii=False))
    else:
        has_gold = any(inst.gold_label is not None for inst in dataset.instances)
        if any(c in inst.id + inst.text for inst in dataset.instances for c in "\t\r\n"):
            raise ValidationError("TSV cannot store ids or texts with tabs or line breaks")
        if any(inst.annotator_labels is not None for inst in dataset.instances):
            raise ValidationError("TSV cannot store annotator labels; save as jsonl")
        header = "id\ttext\tlabel" + ("\tgold_label" if has_gold else "")
        lines.append(header)
        for inst in dataset.instances:
            row = f"{inst.id}\t{inst.text}\t{names[inst.observed_label]}"
            if has_gold:
                gold = "" if inst.gold_label is None else names[inst.gold_label]
                row += f"\t{gold}"
            lines.append(row)
    try:  # encode everything before writing, so a failure leaves no file behind
        return tuple(("\n".join(part) + "\n").encode("utf-8") for part in (lines, names))
    except UnicodeEncodeError as exc:
        raise ValidationError(f"{exc.object[exc.start:exc.end]!r} cannot be saved as "
                              f"UTF-8 ({exc.reason})") from None


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------


def split_dataset(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded shuffle-then-partition into (train, validation, test).

    The outputs are disjoint and their union is the input. A split whose
    fraction is positive must come out non-empty.
    """
    if dataset.split not in (None, "train"):
        raise ValidationError(
            f"can only re-split an unsplit or train dataset, got split={dataset.split!r}")
    n = len(dataset)
    order = derive_rng(spec.seed, "split").permutation(n)
    n_train = round(spec.train_fraction * n)
    n_val = round(spec.validation_fraction * n)
    n_train = min(n_train, n)
    n_val = min(n_val, n - n_train)
    n_test = n - n_train - n_val
    for name, frac, size in (("train", spec.train_fraction, n_train),
                             ("validation", spec.validation_fraction, n_val),
                             ("test", spec.test_fraction, n_test)):
        if frac > 0 and size == 0:
            raise ValidationError(
                f"{name} fraction {frac} yields an empty split for n={n}")
    parts = (order[:n_train], order[n_train:n_train + n_val], order[n_train + n_val:])
    return tuple(
        dataset.select(sorted(part)).with_split(split)
        for part, split in zip(parts, SPLITS)
    )


# ---------------------------------------------------------------------------
# Synthetic corpora
#
# Token universe is a ring; each class reads a window of vocab_per_class
# tokens whose start advances by (1 - overlap) * vocab_per_class per class.
# overlap=0 gives disjoint class vocabularies, overlap=1 collapses every
# window onto the same tokens. Because rule labelers key on tokens, any
# mislabeling they produce is a deterministic function of the text.
# ---------------------------------------------------------------------------


# the vocabularies are lists of token strings, n_classes x vocab_per_class
# in all, so their size is bounded before any is built
_MAX_VOCAB_TOKENS = 2**20


def synthetic_class_vocabularies(n_classes: int, vocab_per_class: int,
                                 overlap: float) -> list[list[str]]:
    """Per-class token lists used by generate_synthetic_corpus (seed-free)."""
    if n_classes < 2:
        raise ValidationError("need at least 2 classes")
    if not 4 <= vocab_per_class <= _MAX_VOCAB_TOKENS // n_classes:
        raise ValidationError("vocab_per_class must be >= 4, and vocab_per_class x "
                              f"classes at most {_MAX_VOCAB_TOKENS}")
    if not 0.0 <= overlap <= 1.0:
        raise ValidationError("overlap must be in [0, 1]")
    stride = (1.0 - overlap) * vocab_per_class
    ring = max(vocab_per_class, round(n_classes * stride))
    width = max(len(str(ring - 1)), 4)
    vocabs = []
    for c in range(n_classes):
        start = round(c * stride)
        vocabs.append([f"tok{(start + j) % ring:0{width}d}"
                       for j in range(vocab_per_class)])
    return vocabs


def generate_synthetic_corpus(
    n_classes: int,
    n_instances: int,
    vocab_per_class: int = 40,
    overlap: float = 0.0,
    seed: int = 0,
    class_weights: Sequence[float] | None = None,
    tokens_per_text: tuple[int, int] = (8, 14),
    global_token_fraction: float = 0.0,
    annotators_per_instance: int = 0,
    annotator_disagreement: float = 0.3,
) -> Dataset:
    """Class-conditional token corpus with gold labels (observed = gold).

    class_weights skews the class proportions. global_token_fraction draws
    that share of each text's tokens from the union of all class
    vocabularies, so texts occasionally carry out-of-class tokens the way
    real documents do. annotators_per_instance > 0 additionally attaches
    that many simulated annotator labels, each agreeing with gold except
    with probability annotator_disagreement.
    """
    if n_instances < n_classes:
        raise ValidationError("need at least one instance per class")
    vocabs = synthetic_class_vocabularies(n_classes, vocab_per_class, overlap)
    lo, hi = tokens_per_text
    if lo < 1 or hi < lo:
        raise ValidationError("tokens_per_text must satisfy 1 <= lo <= hi")
    if not 0.0 <= global_token_fraction <= 1.0:
        raise ValidationError("global_token_fraction must be in [0, 1]")
    if annotators_per_instance < 0 or not 0.0 <= annotator_disagreement <= 1.0:
        raise ValidationError("bad annotator parameters")
    universe = sorted({tok for vocab in vocabs for tok in vocab})

    if class_weights is None:
        weights = np.full(n_classes, 1.0 / n_classes)
    else:
        weights = np.asarray(class_weights, dtype=float)
        if weights.shape != (n_classes,) \
                or not (np.isfinite(weights) & (weights > 0)).all():
            raise ValidationError("class_weights must be finite and positive, "
                                  "one per class")
        weights = weights / weights.sum()

    # largest-remainder apportionment, then at least one instance per class
    counts = np.floor(weights * n_instances).astype(int)
    remainder = weights * n_instances - counts
    for i in np.argsort(-remainder)[: n_instances - counts.sum()]:
        counts[i] += 1
    while (counts == 0).any():
        counts[int(np.argmin(counts))] += 1
        counts[int(np.argmax(counts))] -= 1

    gold = np.repeat(np.arange(n_classes), counts)
    rng = derive_rng(seed, "corpus")
    rng.shuffle(gold)

    width = len(str(n_instances - 1))
    instances = []
    for i in range(n_instances):
        c = int(gold[i])
        vocab = vocabs[c]
        length = int(rng.integers(lo, hi + 1))
        tokens = []
        for t in rng.integers(0, len(vocab), size=length):
            if global_token_fraction and rng.random() < global_token_fraction:
                tokens.append(universe[int(rng.integers(0, len(universe)))])
            else:
                tokens.append(vocab[int(t)])
        annotators = None
        if annotators_per_instance > 0:
            labs = []
            for _ in range(annotators_per_instance):
                if rng.random() < annotator_disagreement:
                    other = int(rng.integers(0, n_classes - 1))
                    labs.append(other + 1 if other >= c else other)
                else:
                    labs.append(c)
            annotators = tuple(labs)
        instances.append(Instance(f"syn{i:0{width}d}", " ".join(tokens), c, c,
                                  annotators))
    return Dataset(LabelSet(tuple(f"class{c}" for c in range(n_classes))),
                   tuple(instances))
