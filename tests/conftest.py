import csv
import math
import os
import pathlib
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath

import esquad as eq
from esquad import es_core


WORKER_DEADLINE_S = 120


def no_child_process() -> bool:
    """Whether this process has no child at all, running or unreaped, however
    it was started (a child that has exited is reaped by the check)."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test after which a child process is still alive or unreaped:
    ``run_many`` kills and reaps the workers it forks before it returns or
    raises."""
    yield
    assert no_child_process()


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count that ``es_core.run_many`` splits its jobs over: on n
    CPUs it forks n - 1 workers, each with one pipe back to the caller.

    The test must end within WORKER_DEADLINE_S, and so must the kill and
    reaping of the workers in run_many's finally after that, so that a worker
    whose pipe never ends fails the test instead of stalling the suite.
    """
    def expire(signum, frame):
        signal.alarm(WORKER_DEADLINE_S)  # re-armed for the reaping in run_many's finally
        raise TimeoutError(f"no results from the run_many workers in {WORKER_DEADLINE_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(WORKER_DEADLINE_S)

    def set_cpus(n):
        monkeypatch.setattr(es_core, "_cpu_count", lambda: n)

    try:
        yield set_cpus
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


def run_under_blas_kernels(code: str) -> dict:
    """The stdout of ``code`` in a fresh interpreter that imports this
    checkout's esquad, under OpenBLAS's kernel for this CPU (key None), under
    each kernel that ``OPENBLAS_CORETYPE`` forces, and with every SIMD
    target that numpy dispatches to on this CPU disabled (key
    "NPY_DISABLE_CPU_FEATURES"): kernels with and without FMA differ in the
    last bit of a dot product, and numpy's exp and log loops per target in
    the last bit of a result."""
    settings = {None: {}}
    for core in ("Haswell", "Sandybridge", "Prescott"):
        settings[core] = {"OPENBLAS_CORETYPE": core}
    settings["NPY_DISABLE_CPU_FEATURES"] = {
        "NPY_DISABLE_CPU_FEATURES": " ".join(_multiarray_umath.__cpu_dispatch__)}
    outputs = {}
    for key, setting in settings.items():
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
        env["PYTHONPATH"] = str(pathlib.Path(eq.__file__).parent.parent)
        env.update(setting)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs[key] = proc.stdout
    return outputs


def kill_worker_on(monkeypatch, path):
    """Make a forked worker SIGKILL itself when it starts the job on stream
    ``path``, in ``es_core._walk``, the kernel a worker runs each job through;
    workers fork after the patch, so they inherit it."""
    caller, real_walk = os.getpid(), es_core._walk

    def dying_walk(*job):
        if os.getpid() != caller and job[4].path == path:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_walk(*job)

    monkeypatch.setattr(es_core, "_walk", dying_walk)


def kill_worker_after(monkeypatch, path):
    """Make a forked worker report its pid once ``es_core._walk`` has run the
    job on stream ``path``, and return a function that, on its first call,
    waits for that report and for the worker to sleep or exit, and SIGKILLs
    it.  After the worker's last job, with kept rows that fill more than a
    pipe's buffer, that kills it while it writes its message.  Workers fork
    after the patch, so they inherit it."""
    caller, real_walk = os.getpid(), es_core._walk
    report = list(os.pipe())

    def reporting_walk(*job):
        rows = real_walk(*job)
        if os.getpid() != caller and job[4].path == path:
            os.write(report[1], str(os.getpid()).encode())
        return rows

    def kill():
        if report:
            pid = int(os.read(report[0], 32))
            stat = pathlib.Path(f"/proc/{pid}/stat")  # state: S sleeping, Z exited
            while stat.read_text().rpartition(")")[2].split()[0] not in "SZ":
                time.sleep(0.001)
            for fd in report:
                os.close(fd)
            report.clear()
            os.kill(pid, signal.SIGKILL)

    monkeypatch.setattr(es_core, "_walk", reporting_walk)
    return kill

