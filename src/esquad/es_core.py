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
step costs one normal and one chi-square variate for any d.

With one distinct eigenvalue (G = 1: the sphere, rotated or not) the chain
is two floats, r and sigma, and ``run`` steps it on Python floats instead of
1-element arrays, whose per-call overhead would dominate the step.  Its
traces equal those of the group chain bit for bit: every reduction of the
group chain has one term there, so each dot product, max and log-norm is a
single correctly rounded product or log, sqrt is correctly rounded in numpy
and in ``math`` alike, and the two chains evaluate the same expressions in
the same order.  The group chain stays the reference, and tests compare the
two.  The one-group chain draws its variates in larger blocks; that changes
no variate, since a block of normals is the stream's next words whatever
the block size, and the chi-square source's draws do not depend on how they
are cut into calls.

With ``record_m`` a run also lifts the chain back to a point: on acceptance
u_k' = (r_k + sigma xi_k) u_k/r_k + sigma sqrt(chi_k) e_k, rescaled to norm
r_k', where e_k is a uniform unit vector of the eigenspace orthogonal to u_k
(a group with r_k = 0 takes (1, ..., 1)/sqrt(n_k) for u_k/r_k).  The e_k come
from a companion stream that every run keys with one word of its stream, so
``record_m`` changes no other column.

``run_many`` runs independent runs on every CPU the process may run on.  With
n = min(CPUs, jobs) the calling process runs jobs 0, n, 2n, ... itself and a
pool of n - 1 worker processes, forked for that call, runs the rest; the call
joins the pool before it returns or raises, so no process outlives it.  With
one CPU or one job it is a plain loop in the caller.  A trace is a function of
its inputs alone, which reach a worker as pickled copies, bit for bit, so
where a run executes cannot change its bytes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .errors import DegenerateStart, NumericalFailure
from .ioutil import atomic_write_text, dump_json
from .quadratic import QuadraticProblem
from .stochastic import (GENERATOR_ID, RandomStream, chi_square_matrix,
                         chi_square_source, companion_stream, normal_matrix,
                         normal_vector)
from .version import VERSION

_LN2 = math.log(2.0)
# Rescale the internal frame when the working scale drifts this far from 1;
# pure powers of two keep the renormalization exact in floating point.
_RESCALE_LIMIT = 100
_SCALE_LOW, _SCALE_HIGH = 2.0 ** -(_RESCALE_LIMIT + 1), 2.0**_RESCALE_LIMIT
_BLOCK = 256  # variate rows per draw of the group chain
_ONE_GROUP_BLOCK = 2048  # and at most this many of the one-group chain


@dataclass(frozen=True)
class EsParams:
    """Step-size multipliers. Requires alpha_up > 1 > alpha_down > 0."""

    alpha_up: float
    alpha_down: float

    def __post_init__(self):
        if not (self.alpha_up > 1.0):
            raise ValueError("alpha_up must be > 1")
        if not (0.0 < self.alpha_down < 1.0):
            raise ValueError("alpha_down must be in (0, 1)")

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
        return p_target(self)

    def to_json(self) -> dict:
        return {"alpha_up": self.alpha_up, "alpha_down": self.alpha_down}


def p_target(params: EsParams) -> float:
    """Success probability at which the expected log step size is stationary."""
    return math.log(1.0 / params.alpha_down) / params.log_ratio


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


@dataclass(frozen=True)
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
        return math.exp(self.log_sigma)


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
    y = np.asarray(state.m, dtype=float) - problem.optimum
    if not np.any(y):
        raise DegenerateStart("started exactly at the optimum")
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

        The regime column is kept empty, so the layout stays fixed."""
        rows = zip(self.t.tolist(), self.log_f.tolist(), self.log_sigma.tolist(),
                   self.accepted.tolist())
        text = "t,log_f,log_sigma,accepted,regime\n" + "".join(
            f"{t},{f!r},{s!r},{a},\n" for t, f, s, a in rows)
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
    threshold.  The run halts early only if the core reaches an exact zero,
    which is flagged on the trace.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    trace = _walk(problem, state0, params, budget, stream, record_m)
    trace.metadata = {
        "version": VERSION,
        "generator_id": GENERATOR_ID,
        "seed": stream.seed,
        "path": list(stream.path),
        "params": params.to_json(),
        "problem": problem.to_json(),
        "budget": budget,
        "log_sigma0": state0.log_sigma,
        "hit_zero": trace.hit_zero,
    }
    return trace


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_many(jobs: Sequence[tuple]) -> List[RunTrace]:
    """The traces of ``run(*job)`` for each job, in job order.

    Each job is a tuple of ``run``'s positional arguments and owns its stream.
    With n = min(CPUs, jobs), the caller runs every job i with i % n == 0 and
    a pool of n - 1 workers, forked for this call and joined before it
    returns, the others.  The first failing job in job order raises, with its
    own exception type and its index in ``jobs`` as ``job_index``; a worker
    that dies raises BrokenProcessPool.  Fork, not spawn: a spawned worker
    would import numpy, scipy and esquad again, about 0.2 s, where a fork
    takes milliseconds; this package starts no thread that a fork could copy.
    """
    jobs = list(jobs)
    n = min(_cpu_count(), len(jobs))
    pool, futures, i = None, {}, 0
    try:
        if n > 1:
            import multiprocessing
            from concurrent.futures.process import ProcessPoolExecutor

            pool = ProcessPoolExecutor(n - 1, mp_context=multiprocessing.get_context("fork"))
            futures = {i: pool.submit(_run_job, job) for i, job in enumerate(jobs) if i % n}
        traces = []
        for i, job in enumerate(jobs):
            traces.append(futures[i].result() if i in futures else run(*job))
        return traces
    except Exception as exc:
        exc.job_index = i
        raise
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _run_job(job):
    # submitted by name, as ``run`` may be patched to a closure that does not
    # pickle; a forked worker looks ``run`` up here and runs what the caller would
    return run(*job)


def _walk(problem, state0, params, budget, stream, record_m=False):
    """The run kernel: the chain of group norms r and sigma (module docstring).

    Takes up to ``budget`` steps from ``state0`` and returns the trace without
    metadata.  The stream keys the chi-square source and the lift stream with
    one word each, then gives the xi_k in blocks.  A problem with one distinct
    eigenvalue runs the one-group chain, any other the group chain; both
    return the rows they kept, which are row 0 and the accepted rows, and
    every other row carries the last kept one forward.
    """
    groups = problem.eigen_groups()
    y = np.asarray(state0.m, dtype=float) - problem.optimum
    if not np.any(y):
        raise DegenerateStart("started exactly at the optimum")
    u = problem.eigen_frame(y)
    # the centred point is u * 2**scale_exp in the eigenframe; start at
    # max |u| in [1/2, 1), so that the squares in r neither over- nor underflow
    scale_exp = math.frexp(float(abs(u).max()))[1]
    u = u * 2.0 ** float(-scale_exp)
    chain = _one_group_chain if groups.eigenvalues.size == 1 else _group_chain
    kept, log_f, log_norm, points, hit_zero = chain(
        groups, u, scale_exp, float(state0.log_sigma), problem.log_core_centered(y),
        params, budget, stream, chi_square_source(stream),
        companion_stream(stream),  # the lift stream, keyed even when unused
        record_m)

    n_kept = kept[-1] + 1 if hit_zero else budget + 1
    acc = np.zeros(n_kept, dtype=np.int8)
    acc[kept[1:]] = 1
    row = np.cumsum(acc)  # the kept row in force at each row, as a list index
    # cumsum adds in sequence, so these are the loop's own sums, bit for bit
    log_sig = np.cumsum(np.r_[state0.log_sigma,
                              np.where(acc[1:], params.log_up, params.log_down)])
    m_centered = None
    if record_m:
        m_centered = np.array(points)[row]
        if problem.rotation is not None:
            m_centered = m_centered @ problem.rotation.T
    return RunTrace(
        t=np.arange(n_kept), log_f=np.array(log_f)[row], log_sigma=log_sig, accepted=acc,
        log_norm=np.array(log_norm)[row], m_centered=m_centered, hit_zero=hit_zero,
    )


def _draw_block(stream, chi_source, rows, groups):
    """The next ``rows`` variates of a run: xi (rows x G normals), chi (the
    chi-square parts, 0 in groups of one) and q = 1/2 sum_k lambda_k (xi_k^2 +
    chi_k) per row as a list."""
    has_chi = groups.counts > 1
    xi = normal_matrix(stream, rows, groups.eigenvalues.size)
    chi = np.zeros_like(xi)
    chi[:, has_chi] = chi_square_matrix(chi_source, rows, groups.counts[has_chi] - 1)
    q = 0.5 * np.einsum("ij,j->i", xi * xi + chi, groups.eigenvalues)
    return xi, chi, q.tolist()


def _group_chain(groups, u, scale_exp, log_sigma, cur_log_f, params, budget, stream,
                 chi_source, lift_stream, record_m):
    """The chain on arrays of G group norms, with the variates in blocks of
    _BLOCK rows; the reference for ``_one_group_chain``.

    Returns the kept rows, their log f, log-norm and (with ``record_m``)
    lifted points, and whether the core hit an exact zero.
    """
    lam = groups.eigenvalues
    sqrt_lam = np.sqrt(lam)
    log_up, log_down = params.log_up, params.log_down
    r = groups.norms(u)

    def refresh(r):
        """Gradient group norms lambda_k r_k, exact core and max r_k of a new parent."""
        g = lam * r
        return g, 0.5 * float(g.dot(r)), float(r.max())

    kept, log_f, log_norm, points = [], [], [], []

    def keep(i):
        kept.append(i)
        log_f.append(cur_log_f)
        log_norm.append(_log_norm(r, r_max) + scale_exp * _LN2)
        if record_m:
            points.append(u * 2.0**scale_exp)

    g, core, r_max = refresh(r)
    keep(0)
    zi = _BLOCK
    for t in range(1, budget + 1):
        sigma_hat = math.exp(log_sigma - scale_exp * _LN2)
        scale = r_max if r_max > sigma_hat else sigma_hat
        if not _SCALE_LOW <= scale < _SCALE_HIGH:
            e = math.frexp(scale)[1]  # the scale is in [2**(e-1), 2**e)
            r = r * 2.0 ** float(-e)
            if record_m:
                u = u * 2.0 ** float(-e)
            scale_exp += e
            g, core, r_max = refresh(r)
            sigma_hat = math.exp(log_sigma - scale_exp * _LN2)
        if zi == _BLOCK:
            xi_block, chi_block, q = _draw_block(stream, chi_source, _BLOCK, groups)
            zi = 0
        xi = xi_block[zi]
        delta = sigma_hat * float(g.dot(xi)) + sigma_hat * sigma_hat * q[zi]
        if not math.isfinite(delta):
            raise NumericalFailure(f"non-finite core decrement at step {t}")
        if delta <= 0.0:
            along = r + sigma_hat * xi
            chi = chi_block[zi]
            r_new = np.sqrt(along * along + sigma_hat * sigma_hat * chi)
            if record_m:
                across = sigma_hat * np.sqrt(chi)
                u = _lift(u, r, along, across, r_new, groups, lift_stream)
            r = r_new
            core_old = core
            g, core, r_max = refresh(r)
            log_sigma += log_up
            if core == 0.0 or delta <= -0.5 * core_old:
                w = sqrt_lam * r
                cur_log_f = math.log(0.5) + 2.0 * (_log_norm(w, float(w.max())) + scale_exp * _LN2)
            else:
                cur_log_f += math.log1p(delta / core_old)
            keep(t)
            if core == 0.0:
                break
        else:
            log_sigma += log_down
        zi += 1
    return kept, log_f, log_norm, points, core == 0.0


def _one_group_chain(groups, u, scale_exp, log_sigma, cur_log_f, params, budget, stream,
                     chi_source, lift_stream, record_m):
    """``_group_chain`` for G = 1 on Python floats, bit for bit, with the
    variates in blocks of up to _ONE_GROUP_BLOCK rows (module docstring)."""
    lam = float(groups.eigenvalues[0])
    sqrt_lam = math.sqrt(lam)
    log_up, log_down = params.log_up, params.log_down
    r = float(groups.norms(u)[0])
    g = lam * r
    core = 0.5 * (g * r)
    kept, log_f, log_norm, points = [0], [cur_log_f], [_log(r) + scale_exp * _LN2], []
    if record_m:
        points.append(u * 2.0**scale_exp)
    zi, q = 0, ()
    for t in range(1, budget + 1):
        sigma_hat = math.exp(log_sigma - scale_exp * _LN2)
        scale = r if r > sigma_hat else sigma_hat
        if not _SCALE_LOW <= scale < _SCALE_HIGH:
            e = math.frexp(scale)[1]
            r *= 2.0 ** float(-e)
            if record_m:
                u = u * 2.0 ** float(-e)
            scale_exp += e
            g = lam * r
            core = 0.5 * (g * r)
            sigma_hat = math.exp(log_sigma - scale_exp * _LN2)
        if zi == len(q):
            xi, chi, q = _draw_block(stream, chi_source, min(_ONE_GROUP_BLOCK, budget + 1 - t),
                                     groups)
            xi, chi, zi = xi[:, 0].tolist(), chi[:, 0].tolist(), 0
        x = xi[zi]
        delta = sigma_hat * (g * x) + sigma_hat * sigma_hat * q[zi]
        if not math.isfinite(delta):
            raise NumericalFailure(f"non-finite core decrement at step {t}")
        if delta <= 0.0:
            along = r + sigma_hat * x
            c = chi[zi]
            r_new = math.sqrt(along * along + sigma_hat * sigma_hat * c)
            if record_m:
                u = _lift(u, np.array([r]), np.array([along]),
                          np.array([sigma_hat * math.sqrt(c)]), np.array([r_new]),
                          groups, lift_stream)
            r = r_new
            core_old = core
            g = lam * r
            core = 0.5 * (g * r)
            log_sigma += log_up
            if core == 0.0 or delta <= -0.5 * core_old:
                cur_log_f = math.log(0.5) + 2.0 * (_log(sqrt_lam * r) + scale_exp * _LN2)
            else:
                cur_log_f += math.log1p(delta / core_old)
            kept.append(t)
            log_f.append(cur_log_f)
            log_norm.append(_log(r) + scale_exp * _LN2)
            if record_m:
                points.append(u * 2.0**scale_exp)
            if core == 0.0:
                break
        else:
            log_sigma += log_down
        zi += 1
    return kept, log_f, log_norm, points, core == 0.0


def _lift(u, r, along, across, r_new, groups, stream):
    """Eigenframe point with group norms r_new after an accepted step from u.

    Group k moves to ``along_k`` times the unit vector of u_k plus ``across_k``
    times a uniform unit vector of its eigenspace orthogonal to u_k, drawn from
    ``stream``, and is rescaled to norm ``r_new_k``.
    """
    k = groups.index
    # a group with r_k = 0 takes (1, ..., 1) / sqrt(n_k) as its unit vector
    unit = (u / np.where(r > 0.0, r, 1.0)[k]
            + np.where(r > 0.0, 0.0, 1.0 / np.sqrt(groups.counts))[k])
    gauss = normal_vector(stream, u.size)
    perp = gauss - unit * np.bincount(k, weights=gauss * unit)[k]
    perp_norm = groups.norms(perp)  # 0 where n_k = 1, and so is across_k
    out = along[k] * unit + (across / np.where(perp_norm > 0.0, perp_norm, 1.0))[k] * perp
    out_norm = groups.norms(out)
    return out * (r_new / np.where(out_norm > 0.0, out_norm, 1.0))[k]


def _log(x: float) -> float:
    """log x of a nonnegative x; -inf for x = 0."""
    return math.log(x) if x > 0.0 else -math.inf


def _log_norm(v: np.ndarray, v_max: float) -> float:
    """log |v| of a nonnegative v with largest entry v_max, stable for tiny
    or huge entries; -inf for v = 0."""
    if v_max == 0.0:
        return -math.inf
    s = v / v_max
    return math.log(v_max) + 0.5 * math.log(float(np.dot(s, s)))
