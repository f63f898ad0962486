"""Byte-level fuzzing of the loaders: a checkpoint, an ensemble directory or
a JSONL corpus with 1-3 of its bytes overwritten either loads or raises
ValidationError; no other exception escapes."""

import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisylabels import (
    Featurizer,
    ValidationError,
    generate_synthetic_corpus,
    init_params,
    load_dataset,
    load_ensemble,
    load_model,
    save_dataset,
    save_ensemble,
    save_model,
)

FEAT = Featurizer(hash_dim=16, ngram_orders=(1, 2), hash_seed=5)


def _saved(write) -> dict[str, bytes]:
    """The bytes of every file write(directory) puts in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        write(Path(tmp))
        return {p.name: p.read_bytes() for p in Path(tmp).iterdir()}


CHECKPOINT = _saved(lambda d: save_model(
    d / "model.ckpt", FEAT, init_params(FEAT, n_labels=3, hidden_size=3, n_heads=2,
                                        drop_rate=0.1, seed=1)))
ENSEMBLE = _saved(lambda d: save_ensemble(
    d, FEAT, [init_params(FEAT, n_labels=3, hidden_size=3, n_heads=h, seed=h)
              for h in (1, 2)]))
CORPUS = _saved(lambda d: save_dataset(
    generate_synthetic_corpus(3, 6, 5, 0.0, seed=2, annotators_per_instance=2),
    d / "corpus.jsonl"))


def edits(files: dict[str, bytes]):
    """1-3 (file name, position, byte) overwrites; a position wraps around
    its file's length."""
    return st.lists(st.tuples(st.sampled_from(sorted(files)),
                              st.integers(0, 2**16), st.integers(0, 255)),
                    min_size=1, max_size=3)


def loads_or_refuses(files: dict[str, bytes], changes, load, name: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        mutated = {n: bytearray(b) for n, b in files.items()}
        for file, position, byte in changes:
            mutated[file][position % len(mutated[file])] = byte
        for n, b in mutated.items():
            (Path(tmp) / n).write_bytes(b)
        try:
            load(Path(tmp) / name)
        except ValidationError:
            pass


class TestByteMutations:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(edits(CHECKPOINT))
    # byte 8 is the low byte of the first .npy header's length; numpy's header
    # parser raised tokenize.TokenError on it
    @example([("model.ckpt", 8, 1)])
    def test_checkpoint(self, changes):
        loads_or_refuses(CHECKPOINT, changes, load_model, "model.ckpt")

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(edits(ENSEMBLE))
    @example([("member00.ckpt", 8, 1)])
    def test_ensemble_directory(self, changes):
        loads_or_refuses(ENSEMBLE, changes, load_ensemble, "ensemble.json")

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(edits(CORPUS))
    def test_jsonl_corpus(self, changes):
        loads_or_refuses(CORPUS, changes, load_dataset, "corpus.jsonl")
