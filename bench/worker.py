"""One repetition of one workload, in a fresh process.

Usage: python3 bench/worker.py --workload NAME --seed N --tmp DIR
       [--trace] [--meta] [--setup-only]

Prints one JSON line: set-up time (importing esquad and building the inputs),
wall time of the workload's call, peak resident set size, the output check
and, with ``--trace``, the aggregated spans of every traced layer.  Right
after the set-up it times a fixed reference task that uses no esquad code, a
gauge of how fast the host runs at that moment.  With ``--setup-only`` it
stops after the gauge and prints only the set-up and reference times.
"""

from __future__ import annotations

import argparse
import ast
import ctypes
import difflib
import glob
import json
import math
import os
import platform
import resource
import statistics
from fractions import Fraction
from pathlib import Path
from time import perf_counter

REFERENCE_CHUNKS = 12  # timings of the reference task; their median is reported
# Source text and line lists the reference task parses, compiles and diffs.
_SOURCE = "".join(f"def f{i}(x, y={i}):\n    return [x * k + y for k in range({i % 7})]\n"
                  for i in range(150))
_LINES = _SOURCE.splitlines()[:120]
_LINES_EDITED = [line.replace("x", "z") for line in _LINES]


def reference_task(np, draws) -> float:
    """A fixed mix of interpreter loops, small numpy operations, bulk normal
    draws, parsing, compiling and other standard-library work, like the
    imports and input building that set-up times; it calls no esquad code."""
    rng = np.random.default_rng(12345)
    x = np.ones(32)
    total = 0.0
    for _ in range(2000):
        y = x + 0.1 * rng.standard_normal(32)
        total += math.log(float(y @ y))
    rng.standard_normal(out=draws)
    total += float(draws.sum())
    compile(ast.parse(_SOURCE), "<reference>", "exec")
    total += difflib.SequenceMatcher(None, _LINES, _LINES_EDITED).ratio()
    harmonic = sum((Fraction(1, i) for i in range(1, 300)), Fraction(0))
    rows = json.loads(json.dumps([{"i": i, "s": str(i)} for i in range(2000)]))
    return total + float(harmonic) + len(rows)


def reference_times(chunks: int) -> list:
    import numpy as np

    draws = np.empty(1_000_000)  # allocated once, so no page faults are timed
    times = []
    for _ in range(chunks):
        t0 = perf_counter()
        reference_task(np, draws)
        times.append(perf_counter() - t0)
    return times


def blas_threads(np):
    """Thread count of the OpenBLAS bundled with numpy, or None if unknown."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata() -> dict:
    import numpy as np
    import scipy

    import esquad

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "generator_id": esquad.GENERATOR_ID,
        "esquad_version": esquad.VERSION,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--meta", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, args.tmp)
    setup_s = perf_counter() - t0
    reference_s = statistics.median(reference_times(REFERENCE_CHUNKS))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "reference_s": reference_s}))
        return

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    t1 = perf_counter()
    output = workload.call(inputs)
    wall_s = perf_counter() - t1
    if tracer is not None:
        tracer.uninstall()
    check = workload.check(inputs, output)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "reference_s": reference_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": check.attempted,
        "failed": check.failed,
        "notes": list(check.notes),
        "digest": check.digest,
        "counts": dict(check.counts),
    }
    if tracer is not None:
        result.update(tracer.summary())
    if args.meta:
        result["meta"] = metadata()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
