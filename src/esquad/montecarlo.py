"""One-step Monte Carlo estimators with standard errors, in decrement form.

An offspring m + sigma z of the parent m changes the core by

    delta = sigma (Hy)^T z + 0.5 sigma^2 z^T H z,    y = m - x*,

a Gaussian linear term plus a quadratic term that concentrates near
sigma^2 Tr(H) / 2.  The estimators never form the offspring.  One private
sampler draws the variates chunk by chunk and computes the two terms per row,
``lin = sigma Z (Hy)`` and ``quad = sigma^2 * core(Z)``; every estimator works
from those two vectors:

* an offspring is accepted iff ``lin + quad <= 0``, so ties are accepted, as
  in ``es_core``;
* its antithetic partner -z has the decrement ``quad - lin``;
* its log core ratio is ``log1p(delta / core(y))``, except on rows with
  ``delta <= -core(y) / 2``, where the core of y + sigma z is evaluated
  directly (the ``es_core`` rule).

Each estimator is a deterministic function of its inputs and the stream, so
reruns reproduce results bit-exactly.  Sampling is chunked to bound memory;
chunking does not change the sample set.  Success-probability estimation uses
antithetic pairs (z, -z).  Their decrements sum to ``2 quad >= 0``, so at most
one of a pair is accepted (both only when ``quad = 0``): the two indicators
are negatively correlated, and a pair mean has at most half the variance of
one indicator.  The other estimators use plain sampling to stay unbiased and
simple.  Sigma must be finite and positive and m finite, or the estimators
raise ``DomainError``; a core at m that under- or overflows raises
``NumericalFailure``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .bounds import TheoryConstants
from .errors import DomainError, NumericalFailure
from .es_core import EsParams
from .potential import potential_from_logs
from .quadratic import QuadraticProblem
from .stochastic import RandomStream, normal_matrix


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n: int
    estimator_id: str


def _chunk_rows(d: int) -> int:
    return max(1, 4_000_000 // d)


def _mean_se(values: np.ndarray) -> Tuple[float, float]:
    n = values.size
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(n))


def _sample(
    problem: QuadraticProblem, m, sigma: float, rows: int, stream: RandomStream,
    values,
) -> np.ndarray:
    """Sample values of ``rows`` offspring of m, one chunk of variates at a time.

    ``values(lin, quad, gain)`` maps a chunk's decrement terms to its sample
    values; ``gain()`` returns the chunk's log core ratios on accepted rows
    and 0 on rejected ones.  The einsum reductions stay off multi-threaded
    BLAS, whose spinning workers would take a core from the normals pool.
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise DomainError(f"sigma must be finite and > 0, got {sigma!r}")
    y = problem.centered(m)
    core_m = problem.core_centered(y)
    if not (math.isfinite(core_m) and core_m > 0.0):
        raise NumericalFailure(f"the core at m is {core_m!r}, not finite and > 0")
    hy = problem.gradient_core(m)
    out = np.empty(rows)
    chunk = _chunk_rows(problem.d)
    for start in range(0, rows, chunk):
        Z = normal_matrix(stream, min(chunk, rows - start), problem.d)
        lin = sigma * np.einsum("ij,j->i", Z, hy)
        quad = sigma * sigma * problem.core_centered_batch(Z)
        gain = functools.partial(_log_gain, problem, y, core_m, sigma, Z, lin + quad)
        out[start : start + len(Z)] = values(lin, quad, gain)
    return out


def _log_gain(problem, y, core_m, sigma, Z, delta) -> np.ndarray:
    """log(core(y + sigma z) / core(y)) where delta <= 0, else 0; never positive."""
    r = np.where(delta <= 0.0, delta, 0.0) / core_m
    gain = np.log1p(np.maximum(r, -0.5))
    # here 1 + r cancels to a small difference and log1p would amplify the
    # rounding error of r, or raise at r = -1; take the offspring's core
    far = np.flatnonzero(r <= -0.5)
    if far.size:
        core_x = problem.core_centered_batch(y + sigma * Z[far])
        with np.errstate(divide="ignore"):
            gain[far] = np.log(core_x / core_m)
    return gain


def estimate_success_prob(
    problem: QuadraticProblem, m, sigma: float, n: int, stream: RandomStream
) -> McEstimate:
    """Pr[f(m + sigma z) <= f(m)] by antithetic sampling.

    n is rounded up to an even count; the standard error is computed over the
    n/2 antithetic pair means.
    """
    if n < 100:
        raise DomainError("estimate_success_prob requires n >= 100")
    pairs = (n + 1) // 2
    pair_means = _sample(
        problem, m, sigma, pairs, stream,
        lambda lin, quad, gain: 0.5 * np.add(
            lin + quad <= 0.0, quad - lin <= 0.0, dtype=float),
    )
    mean, se = _mean_se(pair_means)
    return McEstimate(mean, se, 2 * pairs, "success_prob/antithetic-v2")


def estimate_log_progress(
    problem: QuadraticProblem, m, sigma: float, n: int, stream: RandomStream
) -> McEstimate:
    """E[log(f(m + sigma z) / f(m)) * 1{accept}]; nonpositive by construction."""
    if n < 100:
        raise DomainError("estimate_log_progress requires n >= 100")
    vals = _sample(problem, m, sigma, n, stream, lambda lin, quad, gain: gain())
    mean, se = _mean_se(vals)
    return McEstimate(mean, se, n, "log_progress/plain-v2")


def estimate_exp_abs(
    problem: QuadraticProblem, m, sigma: float, n: int, stream: RandomStream
) -> McEstimate:
    """E[exp(|log f-ratio| * 1{accept})]; rejected samples contribute exactly 1."""
    if n < 1000:
        raise DomainError("estimate_exp_abs requires n >= 1000")
    vals = _sample(
        problem, m, sigma, n, stream, lambda lin, quad, gain: np.exp(-gain())
    )
    mean, se = _mean_se(vals)
    return McEstimate(mean, se, n, "exp_abs/plain-v2")


def estimate_drift_V(
    problem: QuadraticProblem,
    state,
    constants: TheoryConstants,
    params: EsParams,
    n: int,
    stream: RandomStream,
    with_samples: bool = False,
):
    """E[V(next) - V(current)] for one step from the given state.

    With ``with_samples=True`` also returns the raw sample array, which the
    pathwise-bound checks need.
    """
    if n < 1000:
        raise DomainError("estimate_drift_V requires n >= 1000")
    stats = problem.stats()
    log_f = problem.log_core_centered(problem.centered(state.m))
    v_now = float(potential_from_logs(log_f, state.log_sigma, stats, constants))

    def drift(lin, quad, gain):
        log_sigma_next = state.log_sigma + np.where(
            lin + quad <= 0.0, params.log_up, params.log_down
        )
        v_next = potential_from_logs(log_f + gain(), log_sigma_next, stats, constants)
        return v_next - v_now

    samples = _sample(problem, state.m, math.exp(state.log_sigma), n, stream, drift)
    mean, se = _mean_se(samples)
    est = McEstimate(mean, se, n, "drift_V/plain-v2")
    if with_samples:
        return est, samples
    return est
