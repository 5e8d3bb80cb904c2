import csv
import math
import os
import pathlib
import signal
import subprocess
import sys

import numpy as np
import pytest

import esquad as eq
from esquad import es_core


POOL_DEADLINE_S = 120


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count that ``es_core.run_many`` splits its jobs over.

    Shuts down any pool of run workers before and after the test, so that
    each test starts without child processes and builds its own pool.  The
    test and each shutdown must end within POOL_DEADLINE_S, so that a hung
    pool fails the test instead of stalling the suite.
    """
    def expire(signum, frame):
        raise TimeoutError(f"no result from the run pool in {POOL_DEADLINE_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(POOL_DEADLINE_S)
    es_core._drop_process_pool()

    def set_cpus(n):
        monkeypatch.setattr(es_core, "_cpu_count", lambda: n)

    try:
        yield set_cpus
        signal.alarm(POOL_DEADLINE_S)
        es_core._drop_process_pool()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def sphere256():
    return eq.make_problem(eq.sphere(256), 0)


@pytest.fixture(scope="session")
def params256():
    # p_target = 0.4: a round target with feasible theory constants at
    # d = 256.  b_low(q) crosses 4/sqrt(2 pi) between q = 0.36 and 0.37, so
    # targets up to 0.36 are infeasible and 0.37 is the first feasible one
    # on a 0.01 grid (q_low 0.3673); criterion 6 finds that edge by a scan.
    return eq.alpha_schedule(256, 0.4)


@pytest.fixture(scope="session")
def constants256(sphere256, params256):
    return eq.constants(eq.spectrum_stats(sphere256), params256)


def random_problem(rng: np.random.Generator, d: int, cond: float = None):
    """Random diagonal problem with log-uniform spectrum and random optimum."""
    if cond is None:
        cond = math.exp(rng.uniform(0.0, 3.0))
    lam = np.exp(rng.uniform(0.0, math.log(cond), size=d))
    lam[0] = cond
    lam[-1] = 1.0
    opt = rng.normal(size=d)
    return eq.make_problem(lam, opt)


def read_trace_csv(path) -> dict:
    """Parse a trace CSV written by ``RunTrace.write_csv`` back into columns."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        cols = {"t": [], "log_f": [], "log_sigma": [], "accepted": [], "regime": []}
        for row in reader:
            cols["t"].append(int(row["t"]))
            cols["log_f"].append(float(row["log_f"]))
            cols["log_sigma"].append(float(row["log_sigma"]))
            cols["accepted"].append(int(row["accepted"]))
            cols["regime"].append(row["regime"])
    return {
        "t": np.array(cols["t"]),
        "log_f": np.array(cols["log_f"]),
        "log_sigma": np.array(cols["log_sigma"]),
        "accepted": np.array(cols["accepted"]),
        "regime": cols["regime"],
    }


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout's
    esquad; fail on a non-zero exit, else return its stripped stdout."""
    src = str(pathlib.Path(eq.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()
