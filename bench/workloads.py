"""The benchmark's workloads: inputs from a seed, the timed call, output checks.

Each workload has three parts.  ``setup(seed, tmp)`` builds every input from
the workload seed (esquad only ever sees the generated inputs).  ``call``
is the public entry point a user runs, and is the only thing timed as
``wall_s``.  ``check`` inspects the outputs and returns the number of
operations attempted, the number that failed, a digest of the outputs (equal
seeds must give equal digests) and the workload's own counters.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from esquad import cli, experiments, quadratic  # noqa: E402
from esquad.es_core import alpha_schedule  # noqa: E402

DEFAULT_CONFIG = ROOT / "configs" / "default.json"


@dataclass(frozen=True)
class CheckResult:
    attempted: int
    failed: int
    digest: str
    counts: Dict[str, int]
    notes: tuple


@dataclass(frozen=True)
class Workload:
    setup: Callable
    call: Callable
    check: Callable


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# --- verify_sphere256 -------------------------------------------------------


def setup_verify(seed: int, tmp: Path, n_mc=None, budget=None):
    """``configs/default.json`` with the workload seed, validated and saved.

    ``n_mc`` and ``budget`` shrink the run for the benchmark's own tests."""
    config = json.loads(DEFAULT_CONFIG.read_text())
    config["seed"] = seed
    if n_mc is not None:
        config["run"]["n_mc"] = n_mc
    if budget is not None:
        config["run"]["budget"] = budget
        config["run"]["burn_in"] = budget // 10
    experiments.validate_config(config)
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    return {"argv": ["verify", "--config", str(path), "--out", str(tmp / "out")],
            "out": tmp / "out"}


def call_verify(inputs):
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = cli.main(inputs["argv"])
    return code, stdout.getvalue()


def check_verify(inputs, output) -> CheckResult:
    """A failure is a non-zero exit or any check that is not ``pass``; a skip
    fails too, because this configuration is feasible."""
    code, stdout = output
    out: Path = inputs["out"]
    files = sorted(p for p in out.iterdir() if p.is_file())
    hashes = [f"{p.name}:{hashlib.sha256(p.read_bytes()).hexdigest()}" for p in files]
    report = json.loads((out / "report.json").read_text())
    status = [c["status"] for c in report["checks"]]
    failed = sum(s != "pass" for s in status) + (code != 0)
    notes = tuple(f"{c['check_id']}: {c['status']}" for c in report["checks"]
                  if c["status"] != "pass")
    if code != 0:
        notes += (f"exit code {code}",)
    counts = {
        "experiments.verify.pass": status.count("pass"),
        "experiments.verify.fail": status.count("fail"),
        "experiments.verify.skip": status.count("skip"),
        "experiments.verify.retried_checks": sum(
            "retried at 4x n" in c["note"] for c in report["checks"]),
        "cli.output_bytes": len(stdout.encode()) + sum(p.stat().st_size for p in files),
    }
    return CheckResult(len(status), failed, _sha("\n".join(hashes)), counts, notes)


# --- rate_lowdim ------------------------------------------------------------

RATE_BUDGET, RATE_TRIALS = 20_000, 5  # burn-in is a tenth of the budget


def setup_rate(seed: int, tmp: Path, budget=RATE_BUDGET, trials=RATE_TRIALS):
    """Sphere d=8 and d=64, cigar:100 d=64 and a rotated ellipsoid:100 d=64."""
    rotation_seed = int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])
    problems = [
        quadratic.make_problem(quadratic.sphere(8), 0),
        quadratic.make_problem(quadratic.sphere(64), 0),
        quadratic.make_problem(quadratic.cigar(64, 100.0), 0),
        quadratic.make_problem(quadratic.ellipsoid(64, 100.0), 0,
                               rotation_seed=rotation_seed),
    ]
    protocol = experiments.SweepProtocol(budget, budget // 10, trials, seed)
    return {"problems": problems, "protocol": protocol}


def _schedule(problem):
    return alpha_schedule(problem.d, 0.2)


def call_rate(inputs):
    return experiments.sweep(inputs["problems"], _schedule, inputs["protocol"])


def check_rate(inputs, rows) -> CheckResult:
    """A failure is a row without ``a_hat``, an error other than infeasible
    constants, or ``a_hat`` outside (0, cond/(2(d-3)) + 3 SE]."""
    notes = []
    for row in rows:
        err = row["error"]
        a_hat = row["a_hat"]
        if a_hat is None:
            notes.append(f"d={row['d']}: no a_hat ({err})")
        elif err is not None and not err.startswith("constants infeasible"):
            notes.append(f"d={row['d']}: {err}")
        else:
            three_se = row["ci_high"] - a_hat  # ci is a_hat +- 3 SE from 5 trials
            cap = row["cond"] / (2.0 * (row["d"] - 3)) + three_se
            if not 0.0 < a_hat <= cap:
                notes.append(f"d={row['d']}: a_hat {a_hat!r} outside (0, {cap!r}]")
    digest = _sha(experiments.sweep_csv(rows) + repr([r["error"] for r in rows]))
    return CheckResult(len(rows), len(notes), digest, {}, tuple(notes))


# Why each workload was chosen is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "verify_sphere256": Workload(setup_verify, call_verify, check_verify),
    "rate_lowdim": Workload(setup_rate, call_rate, check_rate),
}
