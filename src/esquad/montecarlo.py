"""One-step Monte Carlo estimators with standard errors, in decrement form.

An offspring m + sigma z of the parent m changes the core by

    delta = sigma (Hy)^T z + 0.5 sigma^2 z^T H z,    y = m - x*,

a Gaussian linear term plus a quadratic term that concentrates near
sigma^2 Tr(H) / 2.  The estimators never form the offspring.  With u = R^T y,
the part of R^T z in the eigenspace of a distinct eigenvalue lambda_k of
multiplicity n_k enters delta only through its component xi_k ~ N(0, 1) along
u_k and the squared norm chi_k ~ chi^2(n_k - 1) of the rest (none if n_k = 1).
One private sampler draws those chunk by chunk, exactly in law for any
rotation, and computes per row ``lin = sigma sum_k lambda_k |u_k| xi_k`` and
``quad = 0.5 sigma^2 sum_k lambda_k (xi_k^2 + chi_k)``; every estimator works
from those two vectors:

* an offspring is accepted iff ``lin + quad <= 0``, so ties are accepted, as
  in ``es_core``;
* its antithetic partner -z flips every xi_k and has the decrement
  ``quad - lin``;
* its log core ratio is ``log1p(delta / core(y))``, except on rows with
  ``delta <= -core(y) / 2``, where the core of y + sigma z is evaluated
  directly (the ``es_core`` rule) as a sum of nonnegative terms,
  ``0.5 sum_k lambda_k ((|u_k| + sigma xi_k)^2 + sigma^2 chi_k)``.

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
from .quadratic import QuadraticProblem, spectrum_stats
from .stochastic import (RandomStream, chi_square_matrix, chi_square_source,
                         normal_matrix)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n: int
    estimator_id: str


def _chunk_rows(width: int) -> int:
    # the row cap bounds the per-row temporaries when rows are narrow
    return min(2**16, max(1, 4_000_000 // width))


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
    and 0 on rejected ones.  The stream keys the chi-square source with one
    word, then gives the xi_k.
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise DomainError(f"sigma must be finite and > 0, got {sigma!r}")
    y = problem.centered(m)
    core_m = problem.core_centered(y)
    if not (math.isfinite(core_m) and core_m > 0.0):
        raise NumericalFailure(f"the core at m is {core_m!r}, not finite and > 0")
    groups = problem.eigen_groups()
    lam, mult = groups.eigenvalues, groups.counts
    lam_chi, dof = lam[mult > 1], mult[mult > 1] - 1
    norm_u = groups.norms(problem.eigen_frame(y))

    def log_gain(xi, chi, delta) -> np.ndarray:
        """log(core(y + sigma z) / core(y)) where delta <= 0, else 0; never positive."""
        r = np.where(delta <= 0.0, delta, 0.0) / core_m
        gain = np.log1p(np.maximum(r, -0.5))
        # here 1 + r cancels to a small difference and log1p would amplify the
        # rounding error of r, or raise at r = -1; take the offspring's core
        far = np.flatnonzero(r <= -0.5)
        if far.size:
            v = norm_u + sigma * xi[far]
            core_x = 0.5 * (np.einsum("ij,j,ij->i", v, lam, v)
                            + sigma * sigma * np.einsum("ij,j->i", chi[far], lam_chi))
            with np.errstate(divide="ignore"):
                gain[far] = np.log(core_x / core_m)
        return gain

    chi_source = chi_square_source(stream)
    out = np.empty(rows)
    chunk = _chunk_rows(lam.size + dof.size)
    for start in range(0, rows, chunk):
        xi = normal_matrix(stream, min(chunk, rows - start), lam.size)
        chi = chi_square_matrix(chi_source, len(xi), dof)
        lin = sigma * np.einsum("ij,j->i", xi, lam * norm_u)
        quad = 0.5 * sigma * sigma * (np.einsum("ij,j,ij->i", xi, lam, xi)
                                      + np.einsum("ij,j->i", chi, lam_chi))
        gain = functools.partial(log_gain, xi, chi, lin + quad)
        out[start : start + len(xi)] = values(lin, quad, gain)
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
    pair_means = _sample(
        problem, m, sigma, pairs, stream,
        lambda lin, quad, gain: 0.5 * np.add(
            lin + quad <= 0.0, quad - lin <= 0.0, dtype=float),
    )
    mean, se = _mean_se(pair_means)
    return McEstimate(mean, se, 2 * pairs, "success_prob/antithetic-v3")


def estimate_log_progress(
    problem: QuadraticProblem, m, sigma: float, n: int, stream: RandomStream
) -> McEstimate:
    """E[log(f(m + sigma z) / f(m)) * 1{accept}]; nonpositive by construction."""
    if n < 100:
        raise DomainError("estimate_log_progress requires n >= 100")
    vals = _sample(problem, m, sigma, n, stream, lambda lin, quad, gain: gain())
    mean, se = _mean_se(vals)
    return McEstimate(mean, se, n, "log_progress/plain-v3")


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
    return McEstimate(mean, se, n, "exp_abs/plain-v3")


def estimate_drift_V(
    problem: QuadraticProblem,
    state,
    constants: TheoryConstants,
    params: EsParams,
    n: int,
    stream: RandomStream,
) -> Tuple[McEstimate, np.ndarray]:
    """E[V(next) - V(current)] for one step from the given state, and the
    raw samples, which the pathwise-bound checks need."""
    if n < 1000:
        raise DomainError("estimate_drift_V requires n >= 1000")
    stats = spectrum_stats(problem)
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
    return McEstimate(mean, se, n, "drift_V/plain-v3"), samples
