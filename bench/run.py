"""esquad benchmark: one workload, timed end to end, or traced per layer.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition runs in a fresh process (``bench/worker.py``), one at a
time, so each one pays its own import and set-up and has its own peak RSS.
Repetitions use the same seed, so their outputs must be byte-identical.
New repetitions start while the next one is expected to end within
``--seconds``, after a minimum count.

``--trace 0`` runs untraced repetitions and reports the end-to-end metrics
of BENCHMARK.json.  Set-up time is rescaled to a fixed host speed: each
process also times a fixed reference task that uses no esquad code
(``worker.reference_task``) right after its set-up, and its set-up time is
multiplied by ``REFERENCE_S`` over its own reference time.  The host's speed
drifts by 20% and more within minutes and the reference task, interpreter
work like the imports that dominate set-up, drifts with it; a change to
esquad's set-up still moves the rescaled time in full.

``--trace 1`` runs one untraced repetition and at least two traced ones,
checks that every traced count repeats exactly, and reports the per-layer
metrics.  The last line of standard output is the
JSON result; earlier lines are a human-readable summary and the run
metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_UNTRACED = 3
MIN_TRACED = 2
SETUP_SAMPLES = 9  # set-up-only processes top up the untraced repetitions
REFERENCE_S = 0.040  # median reference task time on the baseline's machine
CHILD_TIMEOUT_S = 170.0
RUN_LIMIT_S = 150.0  # start no repetition expected to end past this
# Peak RSS of the verify workload is bimodal between processes (about 156 or
# 185 MB with the same seed and code), so a traced run reports the lowest
# peak of its repetitions; every other metric is a median over repetitions.
STATISTIC = {"process.peak_rss_mb": min}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_child(workload, seed, tmp, *flags):
    """One worker process; its JSON line, or {"error": ...} if it failed."""
    tmp.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--tmp", str(tmp), *flags]
    env = dict(os.environ)
    env.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"exit code {proc.returncode}: {' | '.join(tail)}"}
    return json.loads(lines[-1])


def collect(args, tmp_root):
    """Repetitions as (traced, result) pairs, and the results of the untraced
    processes, topped up by set-up-only ones, that give set-up times."""
    start = perf_counter()
    deadline = start + args.seconds
    # An untraced run stops by twice its budget even below the minimum count,
    # so a slow host shortens it instead of stretching it; a traced run keeps
    # its two traced repetitions for the exact-count check.
    limit = RUN_LIMIT_S if args.trace else min(RUN_LIMIT_S, 2.0 * args.seconds)
    reps = []
    last_s = {}
    while True:
        n_traced = sum(t for t, _ in reps)
        n_plain = len(reps) - n_traced
        if args.trace:
            traced = n_plain >= 1 and (n_traced < MIN_TRACED or n_traced <= n_plain)
            done = n_plain >= 1 and n_traced >= MIN_TRACED
        else:
            traced = False
            done = n_plain >= MIN_UNTRACED
        expected_end = perf_counter() + last_s.get(traced, 0.0)
        if done and expected_end > deadline:
            break
        if reps and expected_end - start > limit:
            break
        t0 = perf_counter()
        flags = ["--trace"] * traced + ["--meta"] * (not reps)
        res = run_child(args.workload, args.seed, tmp_root / str(len(reps)), *flags)
        last_s[traced] = perf_counter() - t0
        reps.append((traced, res))
        if sum("error" in r for _, r in reps) >= 2:
            break
    setups = [r for t, r in reps if not t and "error" not in r]
    while not args.trace and setups and len(setups) < SETUP_SAMPLES:
        res = run_child(args.workload, args.seed, tmp_root / f"setup{len(setups)}",
                        "--setup-only")
        if "error" in res:
            break
        setups.append(res)
    return reps, setups


def rescaled_setup(rep: dict) -> float:
    """Set-up time at the host speed where the reference task takes
    ``REFERENCE_S``, going by the reference time of the same process."""
    return rep["setup_s"] * REFERENCE_S / rep["reference_s"]


def layer_values(rep: dict, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced repetition, flattened by name."""
    out = exact_counts(rep)
    spans = rep["spans"]
    for name, span in spans.items():
        out[f"{name}.total_s"] = span["total_s"]
        out[f"{name}.self_s"] = span["self_s"]
    variates = spans["stochastic.normal_matrix"]["counts"].get("variates", 0)
    nm_self = spans["stochastic.normal_matrix"]["self_s"]
    out["stochastic.ns_per_variate"] = 1e9 * nm_self / variates if variates else 0.0
    run = spans["es_core.run"]
    steps = run["counts"].get("steps", 0)
    out["es_core.us_per_step"] = 1e6 * run["total_s"] / steps if steps else 0.0
    out["es_core.accept_ratio"] = (run["counts"].get("accepted", 0) / steps
                                   if steps else 0.0)
    out["trace.coverage"] = rep["root_s"] / rep["wall_s"]
    out["trace.overhead_s"] = rep["wall_s"] - untraced_wall
    return out


def exact_counts(rep: dict) -> dict:
    """Every integer count of a traced repetition; equal seeds repeat them."""
    counts = dict(rep["counts"])
    for name, span in rep["spans"].items():
        counts[f"{name}.calls"] = span["calls"]
        for key, value in span["counts"].items():
            counts[f"{name}.{key}"] = value
    return counts


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    for needed in ("src/esquad/__init__.py", "configs/default.json",
                   "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} not found under {ROOT}: not an esquad checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose one of {names}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = perf_counter()
    tmp_root = ROOT / ".bench_tmp" / str(os.getpid())
    try:
        reps, setups = collect(args, tmp_root)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass

    ok = [(t, r) for t, r in reps if "error" not in r]
    problems = [r["error"] for _, r in reps if "error" in r]
    if not ok:
        fail("no repetition completed: " + "; ".join(problems))
    attempted = sum(r["attempted"] for _, r in ok) + len(problems)
    failed = sum(r["failed"] for _, r in ok) + len(problems)
    for _, r in ok:
        problems += r["notes"]
    if len({r["digest"] for _, r in ok}) > 1:
        failed += 1
        problems.append(f"outputs differ between repetitions of seed {args.seed}")

    plain = [r for t, r in ok if not t]
    traced = [r for t, r in ok if t]
    if not args.trace:
        series = {"wall_s": [r["wall_s"] for r in plain],
                  "setup_s": [rescaled_setup(r) for r in setups]}
        raw = [r["setup_s"] for r in setups]
        print(f"{args.workload} setup_s before rescaling: median "
              f"{statistics.median(raw):.6g} s ({' '.join(f'{v:.6g}' for v in raw)})")
    else:
        first = exact_counts(traced[0]) if traced else {}
        for r in traced[1:]:
            for key, value in exact_counts(r).items():
                if first.get(key) != value:
                    failed += 1
                    problems.append(f"count {key} did not repeat: "
                                    f"{first.get(key)} then {value}")
        untraced_wall = statistics.median(r["wall_s"] for r in plain) if plain else 0.0
        values = [layer_values(r, untraced_wall) for r in traced]
        series = {m["name"]: [v.get(m["name"], 0) for v in values] for m in wanted}
        series["process.peak_rss_mb"] = [r["peak_rss_mb"] for r in plain + traced]

    metrics = {}
    for m in wanted:
        vals = series[m["name"]]
        if not vals:
            fail(f"no repetition measured {m['name']}")
        stat = STATISTIC.get(m["name"], statistics.median)
        metrics[m["name"]] = {"value": stat(vals), "unit": m["unit"]}
        q1, q3 = quartiles(vals)
        print(f"{args.workload} {m['name']}: {stat.__name__} {stat(vals):.6g} "
              f"{m['unit']} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(vals)}; "
              f"{' '.join(f'{v:.6g}' for v in vals)})")
    print(f"{args.workload} fail_ratio: {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    for note in problems:
        print(f"{args.workload} failure: {note}")
    meta = dict(ok[0][1].get("meta", {}))
    meta.update(git_sha=git_sha(), workload=args.workload, seed=args.seed,
                trace=args.trace, seconds=args.seconds,
                repetitions={"untraced": len(plain), "traced": len(traced)},
                elapsed_s=perf_counter() - start)
    print("meta: " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
