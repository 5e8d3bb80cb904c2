"""One-step Monte Carlo estimators with standard errors, in decrement form.

An offspring m + sigma z of the parent m changes the core by

    delta = sigma (Hy)^T z + 0.5 sigma^2 z^T H z,    y = m - x*,

a Gaussian linear term plus a quadratic term that concentrates near
sigma^2 Tr(H) / 2.  The estimators never form the offspring; they take it
from the run kernel's draw, ``es_core.draw_block``: per distinct eigenvalue
lambda_k a normal xi_k along the part u_k of u = R^T y in its eigenspace and
a chi-square rest chi_k, with q = 1/2 sum_k lambda_k (xi_k^2 + chi_k),
exactly in law for any rotation.  One private sampler computes per row
``lin = sigma sum_k lambda_k |u_k| xi_k`` and ``quad = sigma^2 q``; every
estimator works from those two vectors:

* an offspring is accepted iff ``lin + quad <= 0``, so ties are accepted, as
  in ``es_core``;
* its antithetic partner -z flips every xi_k and has the decrement
  ``quad - lin``;
* its log core ratio is ``log1p(delta / core(y))``, except on rows with
  ``delta <= -core(y) / 2``, where it is log f of y + sigma z by the
  ``es_core`` new-point rule (``log_norms`` of its group norms) less log f at m.

Each estimator is a deterministic function of its inputs and the stream, so
reruns reproduce results bit-exactly.  Sampling is chunked to bound memory;
chunking does not change the sample set.  Success-probability estimation uses
antithetic pairs (z, -z).  Their decrements sum to ``2 quad >= 0``, so at most
one of a pair is accepted (both only when ``quad = 0``): the two indicators
are negatively correlated, and a pair mean has at most half the variance of
one indicator.  The other estimators use plain sampling to stay unbiased and
simple.  Sigma must be finite and positive and m finite, or the estimators
raise ``DomainError``.  The sampler decides in raw coordinates: a term of a
decrement that overflows alone decides its row, and a core at m that under-
or overflows, or a decrement of inf - inf, raises ``NumericalFailure``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .bounds import TheoryConstants
from .errors import DomainError, NumericalFailure
from .es_core import EsParams, draw_block, step_size
from .potential import potential_from_logs
from .quadratic import QuadraticProblem, log_norms, spectrum_stats
from .stochastic import RandomStream, chi_square_source


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n: int
    estimator_id: str


def _chunk_rows(width: int) -> int:
    # the row cap bounds the per-row temporaries when rows are narrow
    return min(2**16, max(1, 4_000_000 // width))


def _estimate(values: np.ndarray, n: int, estimator_id: str) -> McEstimate:
    se = float(np.std(values, ddof=1) / math.sqrt(values.size))
    return McEstimate(float(np.mean(values)), se, n, estimator_id)


def _sample(
    problem: QuadraticProblem, m, sigma: float, rows: int, stream: RandomStream,
    values,
) -> np.ndarray:
    """Sample values of ``rows`` offspring of m, one chunk of variates at a time.

    ``values(lin, quad, accepted, gain)`` maps a chunk's decrement terms and
    its one acceptance mask to its sample values; ``gain()`` returns the
    chunk's log core ratios on accepted rows and 0 on rejected ones.  The
    stream keys the chi-square source with one word, then gives the xi_k;
    each chunk is one ``draw_block``.
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise DomainError(f"sigma must be finite and > 0, got {sigma!r}")
    y = problem.centered(m)
    core_m = problem.core_centered(y)
    if not (math.isfinite(core_m) and core_m > 0.0):
        raise NumericalFailure(f"the core at m is {core_m!r}, not finite and > 0")
    groups = problem.eigen_groups()
    lam = groups.eigenvalues
    norm_u = groups.norms(problem.eigen_frame(y))

    def log_gain(xi, chi, delta, accepted) -> np.ndarray:
        """log(core(y + sigma z) / core(y)) on accepted rows, else 0; never positive."""
        r = np.where(accepted, delta, 0.0) / core_m
        gain = np.log1p(np.maximum(r, -0.5))
        # here 1 + r cancels to a small difference and log1p would amplify the
        # rounding error of r, or raise at r = -1; take log f at the offspring
        # from its group norms, as es_core does, less log f at m
        far = np.flatnonzero(r <= -0.5)
        if far.size:
            along = norm_u + sigma * xi[far]
            r_new = np.sqrt(along * along + sigma * sigma * chi[far])
            log_f = math.log(0.5) + 2.0 * np.array(log_norms(np.sqrt(lam) * r_new))
            gain[far] = log_f - problem.log_core_centered(y)
        return gain

    chi_source = chi_square_source(stream)
    out = np.empty(rows)
    chunk = _chunk_rows(2 * lam.size)  # xi and chi are rows x G each
    for start in range(0, rows, chunk):
        xi, chi, q = draw_block(stream, chi_source, min(chunk, rows - start), groups)
        with np.errstate(over="ignore", invalid="ignore"):
            lin = sigma * np.einsum("ij,j->i", xi, lam * norm_u)
            quad = sigma * sigma * q
            delta = lin + quad
            if np.isnan(delta).any() or np.isnan(quad - lin).any():
                raise NumericalFailure("core decrement is nan")
        accepted = delta <= 0.0
        gain = functools.partial(log_gain, xi, chi, delta, accepted)
        out[start : start + len(xi)] = values(lin, quad, accepted, gain)
    return out


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
    pair_means = _sample(problem, m, sigma, pairs, stream, lambda lin, quad, accepted, gain:
                         0.5 * np.add(accepted, quad - lin <= 0.0, dtype=float))
    return _estimate(pair_means, 2 * pairs, "success_prob/antithetic-v3")


def estimate_log_progress(
    problem: QuadraticProblem, m, sigma: float, n: int, stream: RandomStream
) -> McEstimate:
    """E[log(f(m + sigma z) / f(m)) * 1{accept}]; nonpositive by construction."""
    if n < 100:
        raise DomainError("estimate_log_progress requires n >= 100")
    vals = _sample(problem, m, sigma, n, stream, lambda lin, quad, accepted, gain: gain())
    return _estimate(vals, n, "log_progress/plain-v3")


def estimate_exp_abs(
    problem: QuadraticProblem, m, sigma: float, n: int, stream: RandomStream
) -> McEstimate:
    """E[exp(|log f-ratio| * 1{accept})]; rejected samples contribute exactly 1."""
    if n < 1000:
        raise DomainError("estimate_exp_abs requires n >= 1000")
    vals = _sample(problem, m, sigma, n, stream,
                   lambda lin, quad, accepted, gain: np.exp(-gain()))
    return _estimate(vals, n, "exp_abs/plain-v3")


def estimate_drift_V(
    problem: QuadraticProblem,
    state,
    constants: TheoryConstants,
    params: EsParams,
    n: int,
    stream: RandomStream,
) -> Tuple[McEstimate, np.ndarray]:
    """E[V(next) - V(current)] for one step from the given state, and the
    raw samples, which the pathwise-bound checks need.  Sigma is
    ``es_core.step_size`` of the state's log sigma."""
    if n < 1000:
        raise DomainError("estimate_drift_V requires n >= 1000")
    sigma = step_size(state.log_sigma)
    stats = spectrum_stats(problem)
    log_f = problem.log_core_centered(problem.centered(state.m))
    v_now = float(potential_from_logs(log_f, state.log_sigma, stats, constants))

    def drift(lin, quad, accepted, gain):
        log_sigma_next = state.log_sigma + np.where(accepted, params.log_up, params.log_down)
        v_next = potential_from_logs(log_f + gain(), log_sigma_next, stats, constants)
        return v_next - v_now

    samples = _sample(problem, state.m, sigma, n, stream, drift)
    return _estimate(samples, n, "drift_V/plain-v3"), samples
