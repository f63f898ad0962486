"""Benchmark entry point.

    python3 perfbench/run.py --workload nc_yoruba --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The library is imported from the
checkout's ``src/``; without it the run exits with code 2 and prints no
result. One process runs one workload with ``NOISYLABELS_WORKERS=1`` and
BLAS threads capped at 1.

``--trace 0`` sets the workload up three times (setup_s is the median),
spreads passes of its timed part, about ``--seconds`` in all, between the
set-ups, checks the outputs and prints the end-to-end metrics; their
timings take each kind of library call at its fastest over the passes
(see ``fastest``). ``--trace 1``
sets up once, makes the same untraced passes, then one traced pass, and
prints the per-layer metrics. The traced pass must reproduce the untraced
digests.

The last stdout line is the result JSON; the line before it holds the
environment, digests and sample counts, which are also written with the
spans under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUPS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PINNED = {"NOISYLABELS_WORKERS": "1", **{var: "1" for var in BLAS_VARS}}

# name -> unit; BENCHMARK.json lists the same names with their bounds
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "accuracy": "fraction",
    "noise_after": "fraction",
    "completed_frac": "fraction",
    "request_ms": "ms",
    "texts_per_s": "1/s",
}

_IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import noisylabels.cli; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Import time of the package and its CLI in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_CODE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip())


def set_up(workload, args, workdir: Path):
    """One set-up: the package import in a fresh interpreter plus the
    workload's own set-up. Returns the state and the seconds both took."""
    imported = import_seconds()
    start = time.perf_counter()
    state = workload.setup(args.seed, workdir)
    return state, imported + time.perf_counter() - start


def measure_passes(workload, args, workdir: Path, rounds: int):
    """Set the workload up `rounds` times and spread the timed passes over
    the rounds: after set-up i, another pass starts while the passes so far
    plus half a typical pass stay within i+1 rounds' share of --seconds, and
    there is at least one pass. So the passes take about --seconds in all,
    and spread passes sample the host's speed over a longer window. The
    first pass is checked; later passes keep only their timings and digests,
    so peak memory does not grow with the number of passes."""
    setup_times, passes, errors = [], [], []
    for i in range(rounds):
        state, seconds = set_up(workload, args, workdir)
        setup_times.append(seconds)
        budget = args.seconds * (i + 1) / rounds
        while not passes or budget >= sum(p.seconds for p in passes) \
                + statistics.median(p.seconds for p in passes) / 2:
            out = workload.run(state)
            if not passes:
                errors = check(workload, state, out)
            out.detail = {}
            passes.append(out)
    if any(p.digests != passes[0].digests for p in passes):
        errors.append("passes of the same inputs gave different digests")
    return state, setup_times, passes, errors


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "env": {var: os.environ[var] for var in PINNED},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def call_times(passes) -> dict[str, list[float]]:
    """The seconds of every call over the passes of a run, by kind."""
    times = defaultdict(list)
    for p in passes:
        for kind, seconds in p.calls:
            times[kind].append(seconds)
    return dict(times)


def fastest(passes) -> dict[str, float]:
    """The fastest call of each kind over the passes of a run.

    Other tenants of a shared host only ever add time to a call, and on a
    busy host they add 20% or more for seconds to minutes at a time. The
    fastest of several calls that do the same work is the estimate of their
    own cost that such contention moves least; a median moves with the
    share of the run during which the host was busy."""
    return {kind: min(times) for kind, times in call_times(passes).items()}


def end_to_end(setup_times: list[float], passes: list) -> dict:
    best = fastest(passes)
    # one pass with each call at the fastest time of its kind
    wall = sum(best[kind] for kind, _ in passes[0].calls)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "accuracy": passes[0].accuracy,
        "noise_after": passes[0].noise_after,
        "completed_frac": (attempted - failed) / attempted,
        # a training workload's request is its whole pass
        "request_ms": 1000 * best.get("request", wall),
        "texts_per_s": passes[0].texts / wall,
    }


def check(workload, state, outcome) -> list[str]:
    try:
        workload.check(state, outcome)
    except Exception as exc:  # noqa: BLE001 - every failed check is reported
        return [f"{type(exc).__name__}: {exc}"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "noisylabels" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads  # imports numpy, so only after the thread caps are set

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        return measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, workdir: Path) -> int:
    state, setup_times, passes, errors = measure_passes(
        workload, args, workdir, 1 if args.trace else SETUPS)
    info = {"env": environment(args), "digests": passes[0].digests,
            "setup_s_samples": setup_times,
            "pass_seconds": [p.seconds for p in passes],
            "samples": {k: len(t) for k, t in call_times(passes).items()},
            "median_ms": {k: 1000 * statistics.median(t)
                          for k, t in call_times(passes).items()}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        with tracer.installed("noisylabels", layers.TARGETS):
            traced = workload.run(state)
        if traced.digests != passes[0].digests:
            errors.append("the traced pass changed the digests")
        overhead = traced.seconds - statistics.median(p.seconds for p in passes)
        values = layers.per_layer_metrics(tracer, overhead)
        units = {name: spec[0] for name, spec in layers.PER_LAYER.items()}
        tracer.write_jsonl(OUT / f"{stem}.spans.jsonl")
        info.update(traced_seconds=traced.seconds, spans=len(tracer.spans))
    else:
        values = end_to_end(setup_times, passes)
        units = END_TO_END

    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    info["checks"] = errors or "passed"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {**info, "metrics": values, "call_seconds": [p.calls for p in passes]},
        indent=2) + "\n", encoding="utf-8")
    print(json.dumps(info))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
