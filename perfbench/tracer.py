"""Outside-in span tracer for the benchmark.

The library modules bind each other's functions with ``from .model import
...``, so one function object is reachable under several module namespaces.
``Tracer.install`` replaces every binding of a target inside the package
(the package itself included) with one timing wrapper, and ``uninstall``
puts the originals back. Spans are kept in memory as
``[name, start, end, parent, run]`` lists and written out when the run ends;
``run`` is the index of the outermost span, so all spans of one top-level
library call share it.
The tracer assumes one thread, which the benchmark guarantees by pinning
``NOISYLABELS_WORKERS=1``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.distinct: dict[str, set] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        run = idx if parent is None else self.spans[parent][RUN]
        self.spans.append([name, self.clock(), None, parent, run])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str, hook=None):
        """Time every call of fn as a span; hook(tracer, args, kwargs,
        result_or_exception) then records counts at the same boundary."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(idx)
                if hook is not None:
                    hook(self, args, kwargs, exc)
                raise
            self._close(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, package: str, targets) -> None:
        """Wrap each (module, attribute, hook) target of the package.

        attribute is a function name or ``Class.method``. A function is
        replaced in every loaded module of the package that binds it.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for module_name, attr, hook in targets:
            module = importlib.import_module(f"{package}.{module_name}")
            span_name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self.wrap(original, span_name, hook))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, span_name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    @contextmanager
    def installed(self, package: str, targets):
        try:
            self.install(package, targets)
            yield self
        finally:
            self.uninstall()

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path: Path) -> None:
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "run": run,
                                     "self": selfs[i]}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children are clipped to the parent and their union taken,
    so overlapping children are not subtracted twice)."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][START]):
            lo, hi = max(spans[c][START], reach), min(spans[c][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out
