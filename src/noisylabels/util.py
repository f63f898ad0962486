"""Shared helpers: stable hashing, seeded RNG streams, type-checked calls."""

from __future__ import annotations

import hashlib
import inspect
import types
import typing
from collections.abc import Sequence

import numpy as np

from .errors import ValidationError


def stable_hash(data: str, seed: int = 0) -> int:
    """64-bit hash of a string that is stable across processes and runs.

    Python's builtin hash() is salted per process, so anything that must be
    reproducible (feature hashing, per-text fallback labels) goes through here.
    """
    h = hashlib.blake2b(data.encode("utf-8"), digest_size=8,
                        key=seed.to_bytes(8, "little", signed=True))
    return int.from_bytes(h.digest(), "little")


def derive_rng(seed: int, *tags: str | int) -> np.random.Generator:
    """Independent named RNG stream derived from a base seed.

    Distinct tags give statistically independent streams, so e.g. batch
    shuffling and dropout can be reseeded separately without interfering.
    """
    entropy = [seed & 0xFFFFFFFFFFFFFFFF if seed >= 0 else seed + 2**64]
    for tag in tags:
        if isinstance(tag, str):
            entropy.append(stable_hash(tag))
        else:
            entropy.append(int(tag) % 2**64)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _conforms(value, hint) -> bool:
    """Whether a JSON-loaded value has an annotated type; an int is a float
    too, a bool is neither, and a list stands for a tuple or sequence."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_conforms(value, arg) for arg in args)
    if origin in (tuple, Sequence):
        return isinstance(value, (list, tuple)) \
            and all(_conforms(v, args[0]) for v in value)
    if hint in (int, float):
        return isinstance(value, (int, hint)) and not isinstance(value, bool)
    return isinstance(value, origin or hint)


def checked_call(fn, kwargs: dict, what: str):
    """fn(**kwargs) for a function or dataclass fn, after raising
    ValidationError about `what` (say "'train'") for a name fn does not
    take, a required one missing, or a value not of its annotated type."""
    params = inspect.signature(fn).parameters
    unknown = sorted(set(kwargs) - set(params))
    missing = [name for name, p in params.items()
               if p.default is p.empty and name not in kwargs]
    if unknown or missing:
        raise ValidationError(f"unknown {what} keys: {unknown}" if unknown
                              else f"missing {what} keys: {missing}")
    hints = typing.get_type_hints(fn)
    for name, value in kwargs.items():
        if not _conforms(value, hints[name]):
            raise ValidationError(f"{what} key {name!r} has the wrong type: {value!r}")
    return fn(**kwargs)
