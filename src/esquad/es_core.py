"""The (1+1)-ES with success-based step-size adaptation.

One parent, one offspring from an isotropic Gaussian, greedy selection with
ties accepted, and multiplicative step-size control: sigma is scaled by
``alpha_up`` on success and by ``alpha_down`` on failure.  The stationary
success probability of that control is
``p_target = log(1/alpha_down) / log(alpha_up/alpha_down)``.

Selection compares the untransformed quadratic core.  Every supported
transform is strictly increasing, so the decision is identical to comparing
transformed objective values, and the comparison stays well defined in the
log domain long after raw objective values leave double range.

An offspring y + sigma z of the centred parent y is accepted iff (ties
accepted) its decrement delta = sigma (Hy)^T z + 1/2 sigma^2 z^T H z <= 0.  On
acceptance log f advances by log1p(delta/core) <= 0, except for
delta/core <= -1/2, where 1 + delta/core can round to 0: log f is then taken
from the new point, still monotone since the core at least halved.  ``step``
applies these rules in full dimension to a given z; it is the reference that
``run`` is tested against.

``run`` samples the same transition with one normal per distinct eigenvalue
of H, not d.  Write H = R diag(lambda) R^T and u = R^T y, and let u_k be the
part of u in the eigenspace of the k-th distinct eigenvalue lambda_k, of
multiplicity n_k.  The part of R^T z there splits into xi_k ~ N(0, 1) along
u_k and a rest of squared norm chi_k ~ chi^2(n_k - 1) (none if n_k = 1), so

    delta = sigma sum_k lambda_k r_k xi_k + 1/2 sigma^2 sum_k lambda_k (xi_k^2 + chi_k)

depends on y only through the group norms r_k = |u_k|, and an accepted step
sets r_k' = sqrt((r_k + sigma xi_k)^2 + sigma^2 chi_k), a sum of nonnegative
terms.  By symmetry inside each eigenspace (r, sigma) is a Markov chain, and
it gives the log f and log-norm columns exactly in law.  On the sphere a
step costs one normal and one chi-square variate for any d.  ``draw_block``
is the one draw of this law, for the run's chains and ``montecarlo``'s
estimators alike.

With at most two distinct eigenvalues (G <= 2: the sphere, cigar, discus
and two-block spectra, rotated or not) the chain is at most a few floats,
and ``run`` steps it on Python floats instead of arrays of one or two
entries, whose per-call overhead would dominate the step (with G = 1 the
second group is absent: ``_float_chain``).  The float chain's traces equal
those of the group chain bit for bit: a reduction of one or two terms in the group
chain is the plain sum ``a + b`` that the float chain writes out, max is
exact, sqrt is correctly rounded in numpy and in ``math`` alike, and the two
chains evaluate the same expressions in the same order.  The group chain
stays the reference, and tests compare the two.  The float chain draws its
variates in larger blocks; that changes no variate, since a block of
normals is the stream's next words whatever the block size, and the
chi-square source's draws do not depend on how they are cut into calls.

Every sum whose result reaches a trace (the group chain's dot products and
cores, the log-norms, the start's log core and default step size, the group
norms) is an einsum without ``optimize`` or a bincount, whose order numpy's
own C code fixes, never a BLAS dot: OpenBLAS picks its kernel for the CPU at
run time, and kernels with and without FMA differ in the last bit.  The exp
and log that reach a trace are ``math``'s, never numpy's, whose SIMD loops
are chosen per CPU and are not correctly rounded.  So the bytes of an
unrotated problem's trace do not depend on the BLAS kernel.  A rotated
problem's still do: its rotation comes from a LAPACK QR
(``random_rotation``), and the start's eigenframe coordinates and the lifted
points are BLAS products with it.

With ``record_m`` a run also lifts the chain back to a point: on acceptance
u_k' = (r_k + sigma xi_k) u_k/r_k + sigma sqrt(chi_k) e_k, rescaled to norm
r_k', where e_k is a uniform unit vector of the eigenspace orthogonal to u_k
(a group with r_k = 0 takes (1, ..., 1)/sqrt(n_k) for u_k/r_k).  The e_k come
from a companion stream that every run keys with one word of its stream, so
``record_m`` changes no other column; drawing them in blocks, like the
chains' variates, changes no variate.

``run_many`` runs independent runs on every CPU the process may run on, the
caller's share in the caller and the rest in worker processes forked for the
call, which it kills and reaps before it returns or raises.  A trace is a
function of its inputs alone, which a worker holds as the caller's own bits,
so where a run executes cannot change its bytes.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import signal
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import DomainError, NumericalFailure
from .ioutil import atomic_write_text, dump_json
from .quadratic import QuadraticProblem, log_norms
from .stochastic import (GENERATOR_ID, RandomStream, chi_square_matrix,
                         chi_square_source, companion_stream, normal_matrix,
                         normal_vector)
from .version import VERSION

_LN2 = math.log(2.0)
# Rescale the internal frame when the working scale drifts this far from 1;
# pure powers of two keep the renormalization exact in floating point.
_RESCALE_LIMIT = 100
_SCALE_LOW, _SCALE_HIGH = 2.0 ** -(_RESCALE_LIMIT + 1), 2.0**_RESCALE_LIMIT
# A run starts where sigma_hat, sigma in the start's renormalised frame, is a
# normal double below 2**1021: a subnormal one can make a step a false tie, and
# the first renormalization, which divides r by about sigma_hat, keeps r_max
# normal and so exact.  exp maps no log of this range outside [2**-1022, 2**1021).
_LOG_SIGMA_HAT_RANGE = (-1022 * _LN2, 1021 * _LN2)
_BLOCK = 256  # variate rows per draw of the group chain
_WINDOW = 16  # rows per einsum of the group chain's dot products
_FLOAT_BLOCK = 2048  # variate rows per draw of the float chain, at most
_LIFT_BLOCK = 32  # lift normals per draw of ``record_m``, in rows of d


@dataclass(frozen=True)
class EsParams:
    """Step-size multipliers: alpha_up > 1 > alpha_down > 0 with a finite ratio."""

    alpha_up: float
    alpha_down: float

    def __post_init__(self):
        if not (self.alpha_up > 1.0):
            raise ValueError("alpha_up must be > 1")
        if not (0.0 < self.alpha_down < 1.0):
            raise ValueError("alpha_down must be in (0, 1)")
        if not math.isfinite(self.alpha_up / self.alpha_down):
            raise ValueError("alpha_up / alpha_down must be finite")

    @property
    def log_up(self) -> float:
        return math.log(self.alpha_up)

    @property
    def log_down(self) -> float:
        return math.log(self.alpha_down)

    @property
    def log_ratio(self) -> float:
        """log(alpha_up / alpha_down) > 0."""
        return math.log(self.alpha_up / self.alpha_down)

    @property
    def p_target(self) -> float:
        """Success probability at which the expected log step size is stationary."""
        return math.log(1.0 / self.alpha_down) / self.log_ratio

    def to_json(self) -> dict:
        return {"alpha_up": self.alpha_up, "alpha_down": self.alpha_down}


def alpha_schedule(d: int, target: float = 0.2, c: float = 1.0) -> EsParams:
    """Dimension-scaled multipliers with an exact success target.

    alpha_up = exp(c/d) and alpha_down chosen so that p_target == target.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target must be in (0, 1)")
    return EsParams(
        alpha_up=math.exp(c / d),
        alpha_down=math.exp(-c * target / ((1.0 - target) * d)),
    )


def step_size(log_sigma: float) -> float:
    """exp(log_sigma), the one rule for a step size: DomainError unless a finite double > 0."""
    try:
        sigma = math.exp(log_sigma)
    except OverflowError:
        raise DomainError(f"sigma = exp({log_sigma!r}) overflows") from None
    if not 0.0 < sigma < math.inf:  # 0 after an underflow, inf or nan
        raise DomainError(f"sigma = exp({log_sigma!r}) is {sigma!r}, not a finite double > 0")
    return sigma


@dataclass(frozen=True, eq=False)
class EsState:
    """Algorithm state: search point m and log step size."""

    m: np.ndarray
    log_sigma: float

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float).copy()
        m.setflags(write=False)
        object.__setattr__(self, "m", m)
        if not (np.all(np.isfinite(m)) and math.isfinite(self.log_sigma)):
            raise NumericalFailure("state must be finite")

    @property
    def sigma(self) -> float:
        """exp(log_sigma) by ``step_size``."""
        return step_size(self.log_sigma)


@dataclass(frozen=True)
class StepOutcome:
    next: EsState
    accepted: bool
    log_f_ratio: float  # log core(m') - log core(m); 0.0 when rejected


def step(state: EsState, z: np.ndarray, problem: QuadraticProblem, params: EsParams) -> StepOutcome:
    """One transition: sample x = m + sigma z, accept iff core(x) <= core(m).

    The full-dimension reference for ``run``, with the same decrement-form
    decision and log f rule.
    """
    y = problem.centered(state.m)
    lam = problem.spectrum.eigenvalues
    sigma = state.sigma
    z = np.asarray(z, dtype=float)
    u, w = problem.eigen_frame(y), problem.eigen_frame(z)
    g = lam * u
    core = 0.5 * float(g.dot(u))
    delta = sigma * float(g.dot(w)) + 0.5 * sigma * sigma * float(np.dot(lam * w, w))
    if not math.isfinite(delta):
        raise NumericalFailure("non-finite core decrement")
    if delta > 0.0:
        return StepOutcome(EsState(state.m, state.log_sigma + params.log_down), False, 0.0)
    y_new = y + sigma * z
    if problem.core_centered(y_new) == 0.0 or delta <= -0.5 * core:
        ratio = problem.log_core_centered(y_new) - problem.log_core_centered(y)
    else:
        ratio = math.log1p(delta / core)
    nxt = EsState(y_new + problem.optimum, state.log_sigma + params.log_up)
    return StepOutcome(nxt, True, ratio)


@dataclass
class RunTrace:
    """Per-iteration record of a run.

    Row t holds the state after t steps; ``accepted[t]`` says whether the step
    from t-1 to t was accepted (row 0 carries 0).  ``log_f`` is the log of the
    untransformed core, tracked exactly even when the core itself would
    underflow a double.  ``log_norm`` is log ||m_t - x*||.  ``m_centered``, the
    lifted point m_t - x* (module docstring), is recorded only on request.
    """

    t: np.ndarray
    log_f: np.ndarray
    log_sigma: np.ndarray
    accepted: np.ndarray
    log_norm: np.ndarray
    m_centered: Optional[np.ndarray] = None
    metadata: dict = field(default_factory=dict)
    hit_zero: bool = False

    def __len__(self) -> int:
        return int(self.t.size)

    def accept_count(self) -> int:
        return int(np.sum(self.accepted))

    def write_csv(self, path) -> None:
        """CSV with header t,log_f,log_sigma,accepted,regime plus a JSON sidecar.

        The regime column is kept empty, so the layout stays fixed.  Every
        row but row 0 and the accepted ones reuses the log_f text of the row
        above: on a trace of ``run`` log f changes only on accepted rows."""
        lines, cell = ["t,log_f,log_sigma,accepted,regime\n"], ""
        for t, f, s, a in zip(self.t.tolist(), self.log_f.tolist(),
                              self.log_sigma.tolist(), self.accepted.tolist()):
            if a or not cell:  # row 0 or an accepted row
                cell = repr(f)
            lines.append(f"{t},{cell},{s!r},{a},\n")
        text = "".join(lines)
        atomic_write_text(path, text)
        atomic_write_text(str(path) + ".meta.json", dump_json(self.metadata))


def run(
    problem: QuadraticProblem,
    state0: EsState,
    params: EsParams,
    budget: int,
    stream: RandomStream,
    record_m: bool = False,
) -> RunTrace:
    """Run the ES for ``budget`` steps and return the full trace.

    The run samples the chain of group norms r and sigma of the module
    docstring.  Together with the lifted point when ``record_m`` is set, r
    is renormalized by exact powers of two whenever the scale max(max r_k,
    sigma) leaves [2**-100, 2**100]; the quadratic core is exactly
    scale-equivariant under that renormalization, so decisions are
    unaffected while log f is tracked far below the double underflow
    threshold.  The run halts early only at x*, where every r_k is 0 (a core
    that merely underflows goes on), which is flagged on the trace.  A start
    whose sigma is not a normal double below 2**1021 in the start's frame,
    where its largest eigenframe coordinate is in [1/2, 1), raises DomainError.
    """
    job = (problem, state0, params, budget, stream, record_m)
    return _expand(_walk(*job), *job)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class BrokenProcessPool(RuntimeError):
    """A ``run_many`` worker process died before it sent its results."""


def run_many(jobs: Sequence[tuple],
             meanwhile: Optional[Callable[[], None]] = None) -> List[RunTrace]:
    """The traces of ``run(*job)`` for each job, in job order.

    Each job is a tuple of ``run``'s positional arguments and owns its stream.
    With n = min(CPUs, jobs) the jobs are split before any of them runs:
    without ``meanwhile`` the caller keeps every job i with i % n == 0, with
    it only job 0, and n - 1 workers, forked for this call, take the rest in
    turn.  The caller calls ``meanwhile()``, runs its share with ``run`` and
    then reads each worker's results; with one CPU or one job it calls
    ``meanwhile()`` and runs every job in order.  A worker, one ``os.fork``
    with one pipe, runs its share in job order and stops at its first
    failure; it writes one byte to its pipe per job it finishes and then the
    kept rows of each (``_walk``) and its failure as one pickle, which the
    caller reads to the pipe's end.

    An exception from ``meanwhile`` propagates unchanged.  Otherwise the
    first failing job in job order raises, with its own exception type and
    its index in ``jobs`` as ``job_index``; a worker that dies raises
    BrokenProcessPool at the first job of its share it did not finish, or at
    its last job if it died sending its message.  Any other exception, such
    as an OSError from fork, carries no ``job_index``.  The call starts no
    thread, and kills and reaps every worker it started before it returns or
    raises.  Fork, not spawn: a spawned worker would import numpy, scipy and
    esquad again, about 0.2 s, where a fork takes milliseconds; this package
    starts no thread that a fork could copy.
    """
    jobs = list(jobs)
    n = min(_cpu_count(), len(jobs))
    if n < 2:
        mine = range(len(jobs))
    else:
        mine = range(0, 1 if meanwhile is not None else len(jobs), n)
    pooled = [i for i in range(len(jobs)) if i not in mine]
    workers = []
    try:
        for k in range(n - 1):
            workers.append(_Worker(jobs, pooled[k::n - 1]))
        if meanwhile is not None:
            meanwhile()
        # the first failure in job order: its index and exception
        traces, failure = [None] * len(jobs), (len(jobs), None)
        for i in mine:
            try:
                traces[i] = run(*jobs[i])
            except Exception as exc:
                failure = (i, exc)
                break
        for worker in workers:
            if worker.share[0] < failure[0]:  # else no result of it can be returned
                failure = min(failure, worker.collect(jobs, traces), key=lambda f: f[0])
        i, exc = failure
        if exc is not None:
            exc.job_index = i
            raise exc
        return traces
    finally:
        for worker in workers:
            worker.stop()


class _Worker:
    """A process forked to run one share of ``run_many``'s jobs, none pickled,
    as that docstring says, and the read end of its one pipe.  It leaves
    through ``os._exit`` whatever happened, so it never returns into the
    caller's code."""

    def __init__(self, jobs, share):
        self.share = share
        self.results, writer = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(self.results)
            os.close(writer)
            raise
        if self.pid == 0:
            try:
                kept, error = [], None
                for i in share:
                    try:
                        kept.append(_walk(*jobs[i]))
                    except Exception as exc:
                        error = exc
                        break
                    os.write(writer, b"\1")
                with open(writer, "wb") as pipe:
                    pickle.dump((kept, error), pipe)
            finally:
                os._exit(0)
        os.close(writer)  # so that the pipe ends when the worker does

    def collect(self, jobs, traces):
        """Fill in the traces of the share's finished jobs; return the index
        and exception of its failing job, or (len(jobs), None)."""
        with open(self.results, "rb", closefd=False) as pipe:
            message = pipe.read()
        done = len(message) - len(message.lstrip(b"\1"))  # a pickle starts with 0x80
        try:
            kept, error = pickle.loads(message[done:])
        except (EOFError, pickle.UnpicklingError):  # no message, or part of one: the worker died
            i = self.share[min(done, len(self.share) - 1)]
            return i, BrokenProcessPool(f"the worker process running job {i} died")
        for i, rows in zip(self.share, kept):
            traces[i] = _expand(rows, *jobs[i])
        return (len(jobs), None) if error is None else (self.share[len(kept)], error)

    def stop(self):
        """Kill the worker if it still runs, reap it and close the pipe."""
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        os.close(self.results)


def _walk(problem, state0, params, budget, stream, record_m=False):
    """The run kernel: the chain of group norms r and sigma (module docstring).

    Takes up to ``budget`` steps from ``state0`` and returns the rows it kept,
    which are row 0 and the accepted rows: their indices, log f, log-norm and
    (with ``record_m``) lifted points as arrays, and whether the run reached
    x* (every r_k 0).  The stream keys the chi-square source and the lift stream
    with one word each, then gives the xi_k in blocks.  A problem with at
    most two distinct eigenvalues runs the float chain, any other the group
    chain.
    """
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 0:
        raise ValueError("budget must be an integer >= 0")
    groups = problem.eigen_groups()
    y = problem.centered(state0.m)
    u = problem.eigen_frame(y)
    # the centred point is u * 2**scale_exp in the eigenframe; start at
    # max |u| in [1/2, 1), so that the squares in r neither over- nor underflow
    scale_exp = math.frexp(float(abs(u).max()))[1]
    u = u * 2.0 ** float(-scale_exp)
    low, high = _LOG_SIGMA_HAT_RANGE
    log_sigma_hat = float(state0.log_sigma) - scale_exp * _LN2
    if not low <= log_sigma_hat < high:
        raise DomainError(f"log sigma is {log_sigma_hat!r} in the start's frame, "
                          "outside [log 2**-1022, log 2**1021)")
    chain = _float_chain if groups.eigenvalues.size <= 2 else _group_chain
    kept, log_f, log_norm, points, hit_zero = chain(
        groups, u, scale_exp, float(state0.log_sigma), problem.log_core_centered(y),
        params, budget, stream, chi_square_source(stream),
        _Lift(groups, companion_stream(stream)),  # the lift stream, keyed even when unused
        record_m)
    return (np.array(kept), np.array(log_f), np.array(log_norm),
            np.array(points) if record_m else None, hit_zero)


def _expand(rows, problem, state0, params, budget, stream, record_m=False):
    """The trace of a run from the rows that ``_walk`` kept: every other row
    carries the last kept one forward."""
    kept, log_f, log_norm, points, hit_zero = rows
    n_kept = int(kept[-1]) + 1 if hit_zero else budget + 1
    acc = np.zeros(n_kept, dtype=np.int8)
    acc[kept[1:]] = 1
    row = np.cumsum(acc)  # the kept row in force at each row, as an index
    # cumsum adds in sequence, so these are the loop's own sums, bit for bit
    log_sig = np.cumsum(np.r_[state0.log_sigma,
                              np.where(acc[1:], params.log_up, params.log_down)])
    m_centered = None
    if record_m:
        m_centered = points[row]
        if problem.rotation is not None:
            m_centered = m_centered @ problem.rotation.T
    return RunTrace(
        t=np.arange(n_kept), log_f=log_f[row], log_sigma=log_sig, accepted=acc,
        log_norm=log_norm[row], m_centered=m_centered, hit_zero=hit_zero,
        metadata={
            "version": VERSION,
            "generator_id": GENERATOR_ID,
            "seed": stream.seed,
            "path": list(stream.path),
            "params": params.to_json(),
            "problem": problem.to_json(),
            "budget": budget,
            "log_sigma0": state0.log_sigma,
            "hit_zero": hit_zero,
        },
    )


def draw_block(stream, chi_source, rows, groups):
    """The next ``rows`` offspring of the grouped law (module docstring), drawn
    here for runs and Monte Carlo alike: xi (rows x G normals), chi (the
    chi-square parts, 0 in groups of one) and q = 1/2 sum_k lambda_k (xi_k^2 +
    chi_k) per row, so that a decrement is sigma sum_k lambda_k r_k xi_k + sigma^2 q."""
    has_chi = groups.counts > 1
    xi = normal_matrix(stream, rows, groups.eigenvalues.size)
    chi = chi_square_matrix(chi_source, rows, groups.counts[has_chi] - 1)
    if not has_chi.all():  # else, as on the sphere, every group has a chi part
        chi, parts = np.zeros_like(xi), chi
        chi[:, has_chi] = parts
    q = 0.5 * np.einsum("ij,j->i", xi * xi + chi, groups.eigenvalues)
    return xi, chi, q


def _group_chain(groups, u, scale_exp, log_sigma, cur_log_f, params, budget, stream,
                 chi_source, lift, record_m):
    """The chain on arrays of G group norms, with the variates in blocks of
    _BLOCK rows; the reference for ``_float_chain``.

    Returns the kept rows, their log f, log-norm and (with ``record_m``)
    lifted points, and whether the run reached x* (r_max = 0), where it
    halts.  The log-norms are taken in batches of up to _BLOCK kept rows.

    The parent's lambda_k r_k . xi_k of each row is taken from a window: one
    einsum over the parent's r followed by the next _WINDOW rows of xi gives
    its core and the dot products of those rows, and the window is redone
    after every accepted step or renormalization and when it runs out.  The
    buffer holds a block's xi in rows 1.. behind a free row 0, so r can be
    written into the row just before the window, a spent or the free one.
    """
    lam = groups.eigenvalues
    sqrt_lam = np.sqrt(lam)
    has_chi = bool(np.any(groups.counts > 1))
    log_up, log_down = params.log_up, params.log_down
    r = groups.norms(u)
    g, r_max = lam * r, float(r.max())
    kept, log_f, log_norm, points = [], [], [], []
    norms, exps = [], []  # r and scale_exp of kept rows without a log-norm yet

    def keep(i):
        kept.append(i)
        log_f.append(cur_log_f)
        norms.append(r)
        exps.append(scale_exp)
        if len(norms) == _BLOCK:
            take_log_norms()
        if record_m:
            points.append(u * 2.0**scale_exp)

    def take_log_norms():
        log_norm.extend(n + e * _LN2 for n, e in zip(log_norms(np.array(norms)), exps))
        norms.clear()
        exps.clear()

    def window(i):
        """Writes r into row i - 1 and returns g . r and g . xi of up to
        _WINDOW rows from row i as a list, its first row and its end."""
        rows[i - 1] = r
        dots = np.einsum("ij,j->i", rows[i - 1:i + _WINDOW], g).tolist()
        return dots, i - 1, i - 1 + len(dots)

    rows = np.zeros((_BLOCK + 1, lam.size))
    dots, first, end = window(1)
    core = 0.5 * dots[0]
    i = _BLOCK + 1  # draw the first block at step 1
    keep(0)
    exp, isfinite, low, high = math.exp, math.isfinite, _SCALE_LOW, _SCALE_HIGH  # hot loop
    shift = scale_exp * _LN2
    for t in range(1, budget + 1):
        sigma_hat = exp(log_sigma - shift)
        scale = r_max if r_max > sigma_hat else sigma_hat
        if not low <= scale < high:
            e = math.frexp(scale)[1]  # the scale is in [2**(e-1), 2**e)
            r = r * 2.0 ** float(-e)
            if record_m:
                u = u * 2.0 ** float(-e)
            scale_exp += e
            shift = scale_exp * _LN2
            g, r_max = lam * r, float(r.max())
            end = i  # the window's dots are of the old scale
            sigma_hat = exp(log_sigma - shift)
        if i > _BLOCK:
            xi_block, chi_block, q = draw_block(stream, chi_source, _BLOCK, groups)
            rows[1:] = xi_block
            q = q.tolist()
            i = end = 1
        if i == end:
            dots, first, end = window(i)
            core = 0.5 * dots[0]
        delta = sigma_hat * dots[i - first] + sigma_hat * sigma_hat * q[i - 1]
        if not isfinite(delta):
            raise NumericalFailure(f"non-finite core decrement at step {t}")
        if delta <= 0.0:
            along = r + sigma_hat * rows[i]
            chi = chi_block[i - 1]
            # with no chi_k the sum adds +0.0 to each square, which changes none
            r_new = np.sqrt(along * along + sigma_hat * sigma_hat * chi if has_chi
                            else along * along)
            if record_m:
                across = sigma_hat * np.sqrt(chi)
                u = lift(u, r, along, across, r_new)
            r = r_new
            core_old = core
            g, r_max = lam * r, float(r.max())
            dots, first, end = window(i + 1)
            core = 0.5 * dots[0]
            log_sigma += log_up
            if core == 0.0 or delta <= -0.5 * core_old:
                cur_log_f = math.log(0.5) + 2.0 * (log_norms((sqrt_lam * r)[None])[0] + shift)
            else:
                cur_log_f += math.log1p(delta / core_old)
            keep(t)
            if r_max == 0.0:
                break
        else:
            log_sigma += log_down
        i += 1
    if norms:  # empty when the kept rows filled whole batches
        take_log_norms()
    return kept, log_f, log_norm, points, r_max == 0.0


def _float_chain(groups, u, scale_exp, log_sigma, cur_log_f, params, budget, stream,
                 chi_source, lift, record_m):
    """``_group_chain`` for G <= 2 on Python floats, bit for bit, with the
    variates in blocks of up to _FLOAT_BLOCK rows (module docstring).

    With G = 1 the second group is absent: it has lambda = r = 0 and zero
    variates.  Its terms add +0.0 to sums that are never -0.0 (no variate
    of the stream is 0, and r is not 0 while the run goes on), so every sum
    and max below equals its one-term form.
    """
    n_groups = groups.eigenvalues.size
    lam1, lam2 = _pair(groups.eigenvalues.tolist(), 0.0)
    sq1, sq2 = math.sqrt(lam1), math.sqrt(lam2)
    log_up, log_down = params.log_up, params.log_down
    r1, r2 = _pair(groups.norms(u).tolist(), 0.0)
    g1, g2 = lam1 * r1, lam2 * r2
    core = 0.5 * (g1 * r1 + g2 * r2)
    r_max = r1 if r1 > r2 else r2
    shift = scale_exp * _LN2
    kept, log_f, log_norm, points = [0], [cur_log_f], [_log_norm2(r1, r2) + shift], []
    if record_m:
        points.append(u * 2.0**scale_exp)
    exp, isfinite, low, high = math.exp, math.isfinite, _SCALE_LOW, _SCALE_HIGH  # hot loop
    t = 0
    while t < budget:
        xi, chi, q = draw_block(stream, chi_source, min(_FLOAT_BLOCK, budget - t), groups)
        zero = itertools.repeat(0.0)
        for t, x1, x2, c1, c2, qt in zip(itertools.count(t + 1), *_pair(xi.T.tolist(), zero),
                                         *_pair(chi.T.tolist(), zero), q.tolist()):
            sigma_hat = exp(log_sigma - shift)
            scale = r_max if r_max > sigma_hat else sigma_hat
            if not low <= scale < high:
                e = math.frexp(scale)[1]
                r1 *= 2.0 ** float(-e)
                r2 *= 2.0 ** float(-e)
                if record_m:
                    u = u * 2.0 ** float(-e)
                scale_exp += e
                shift = scale_exp * _LN2
                g1, g2 = lam1 * r1, lam2 * r2
                core = 0.5 * (g1 * r1 + g2 * r2)
                r_max = r1 if r1 > r2 else r2
                sigma_hat = exp(log_sigma - shift)
            delta = sigma_hat * (g1 * x1 + g2 * x2) + sigma_hat * sigma_hat * qt
            if not isfinite(delta):
                raise NumericalFailure(f"non-finite core decrement at step {t}")
            if delta <= 0.0:
                along1, along2 = r1 + sigma_hat * x1, r2 + sigma_hat * x2
                n1 = math.sqrt(along1 * along1 + sigma_hat * sigma_hat * c1)
                n2 = math.sqrt(along2 * along2 + sigma_hat * sigma_hat * c2)
                if record_m and n_groups == 1:
                    u = lift.one(u, r1, along1, sigma_hat * math.sqrt(c1), n1)
                elif record_m:
                    u = lift(u, np.array([r1, r2]), np.array([along1, along2]),
                             sigma_hat * np.sqrt([c1, c2]), np.array([n1, n2]))
                r1, r2 = n1, n2
                core_old = core
                g1, g2 = lam1 * r1, lam2 * r2
                core = 0.5 * (g1 * r1 + g2 * r2)
                r_max = r1 if r1 > r2 else r2
                log_sigma += log_up
                if core == 0.0 or delta <= -0.5 * core_old:
                    cur_log_f = math.log(0.5) + 2.0 * (_log_norm2(sq1 * r1, sq2 * r2) + shift)
                else:
                    cur_log_f += math.log1p(delta / core_old)
                kept.append(t)
                log_f.append(cur_log_f)
                log_norm.append(_log_norm2(r1, r2) + shift)
                if record_m:
                    points.append(u * 2.0**scale_exp)
                if r_max == 0.0:
                    return kept, log_f, log_norm, points, True
            else:
                log_sigma += log_down
    return kept, log_f, log_norm, points, r_max == 0.0


def _pair(values, absent):
    """The one or two entries of ``values`` as a pair, ``absent`` standing in
    for a missing second."""
    return (*values, absent)[:2]


class _Lift:
    """The lift of ``record_m`` (module docstring) for one run, which draws the
    lift stream's normals _LIFT_BLOCK rows of d at a time, moving none of them."""

    def __init__(self, groups, stream):
        d, self.groups, self.inv_sqrt_n = groups.index.size, groups, 1.0 / np.sqrt(groups.counts)
        self.normals = itertools.chain.from_iterable(
            normal_vector(stream, _LIFT_BLOCK * d).reshape(-1, d) for _ in itertools.count())

    def __call__(self, u, r, along, across, r_new):
        """Eigenframe point with group norms r_new after an accepted step from
        u: group k goes to along_k u_k/r_k plus across_k times a uniform unit
        vector orthogonal to u_k in its eigenspace, rescaled to norm r_new_k."""
        k, gauss, positive = self.groups.index, next(self.normals), r > 0.0
        # a group with r_k = 0 takes (1, ..., 1)/sqrt(n_k); + 0.0 turns -0.0 into +0.0
        unit = u / np.where(positive, r, 1.0)[k] + np.where(positive, 0.0, self.inv_sqrt_n)[k]
        perp = gauss - unit * np.bincount(k, weights=gauss * unit)[k]
        perp_norm = self.groups.norms(perp)  # 0 where n_k = 1, and so is across_k
        out = along[k] * unit + (across / np.where(perp_norm > 0.0, perp_norm, 1.0))[k] * perp
        out_norm = self.groups.norms(out)
        return out * (r_new / np.where(out_norm > 0.0, out_norm, 1.0))[k]

    def one(self, u, r, along, across, r_new):
        """``__call__`` for one group on floats, for ``_float_chain``: the same
        operations in the same order, bit for bit, without arrays of one entry."""
        gauss, k = next(self.normals), self.groups.index
        unit = u / r + 0.0 if r > 0.0 else u / 1.0 + self.inv_sqrt_n[0]
        perp = gauss - unit * np.bincount(k, weights=gauss * unit)[0]
        perp_norm = math.sqrt(np.bincount(k, weights=perp * perp)[0])
        out = along * unit + across / (perp_norm if perp_norm > 0.0 else 1.0) * perp
        out_norm = math.sqrt(np.bincount(k, weights=out * out)[0])
        return out * (r_new / (out_norm if out_norm > 0.0 else 1.0))


def _log_norm2(a: float, b: float) -> float:
    """``quadratic.log_norms`` of the one row (a, b), on floats.

    There the larger entry divides to 1.0, so the sum of squares is 1.0 plus
    the smaller one's square, and with a zero entry log 1.0 adds 0.0."""
    if a < b:
        a, b = b, a
    if b == 0.0:
        return math.log(a) if a > 0.0 else -math.inf
    b /= a
    return math.log(a) + 0.5 * math.log(1.0 + b * b)
