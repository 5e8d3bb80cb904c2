"""One-step Monte Carlo estimators with standard errors, in decrement form.

An offspring m + sigma z of the parent m changes the core by

    delta = sigma (Hy)^T z + 0.5 sigma^2 z^T H z,    y = m - x*,

a Gaussian linear term plus a quadratic term that concentrates near
sigma^2 Tr(H) / 2.  The estimators never form the offspring; they take it
from the run kernel's draw, ``es_core.draw_block``: per distinct eigenvalue
lambda_k a normal xi_k along the part u_k of u = R^T y in its eigenspace and
a chi-square rest chi_k, with q = 1/2 sum_k lambda_k (xi_k^2 + chi_k),
exactly in law for any rotation.  One private sampler computes per row
``lin = sigma_hat sum_k lambda_k |u_k| xi_k`` and ``quad = sigma_hat^2 q`` in
the frame of ``es_core.step_frame``, as ``step`` does, so the estimators that
take sigma give the same bits at every scale of (m - x*, sigma); every
estimator works from those two vectors:

* an offspring is accepted iff ``lin + quad <= 0``, so ties are accepted, as
  in ``es_core``;
* its antithetic partner -z flips every xi_k and has the decrement
  ``quad - lin``;
* its log core ratio is ``log1p(delta / core)``, except on rows with
  ``delta <= -core / 2``, where it is log f of the offspring by the
  ``es_core`` new-point rule less log f at m by the same rule.

Each estimator is a deterministic function of its inputs and the stream, so
reruns reproduce results bit-exactly.  Sampling is chunked to bound memory;
chunking does not change the sample set.  Success-probability estimation uses
antithetic pairs (z, -z).  Their decrements sum to ``2 quad >= 0``, so at most
one of a pair is accepted (both only when ``quad = 0``): the two indicators
are negatively correlated, and a pair mean has at most half the variance of
one indicator.  The other estimators use plain sampling to stay unbiased and
simple.  Sigma must be finite and positive, m finite, and (m, sigma) a
state that ``run`` admits, or the estimators raise ``DomainError``; a
non-finite decrement raises ``NumericalFailure``, as in ``run``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .bounds import TheoryConstants
from .errors import DomainError, NumericalFailure
from .es_core import EsParams, draw_block, step_frame, step_size
from .potential import potential_from_logs
from .quadratic import QuadraticProblem, einsum_dot, log_norms, spectrum_stats
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

    ``values(lin, quad, accepted, gain)`` maps a chunk's decrement terms in
    the frame of ``es_core.step_frame`` and its one acceptance mask to its
    sample values; ``gain()`` returns the chunk's log core ratios on accepted
    rows and 0 on rejected ones.  The stream keys the chi-square source with
    one word, then gives the xi_k; each chunk is one ``draw_block``.
    """
    _, u, sigma_hat = step_frame(problem, m, sigma)
    groups = problem.eigen_groups()
    lam = groups.eigenvalues
    sqrt_lam = np.sqrt(lam)
    norm_u = groups.norms(u)
    core = 0.5 * einsum_dot(problem.spectrum.eigenvalues * u, u)
    log_norm = log_norms((sqrt_lam * norm_u)[None])[0]

    def log_gain(xi, chi, delta, accepted) -> np.ndarray:
        """log(core(y + sigma z) / core(y)) on accepted rows, else 0; never positive."""
        far = accepted & (delta <= -0.5 * core)  # and so core > 0 on the other accepted rows
        gain = np.log1p(np.divide(delta, core, out=np.zeros(delta.size), where=accepted & ~far))
        # where 1 + delta/core cancels, which log1p would amplify: log f by the
        # new-point rule less log f at m, where log 1/2 and the frame's shift cancel
        along = norm_u + sigma_hat * xi[far]
        r_new = np.sqrt(along * along + sigma_hat * sigma_hat * chi[far])
        gain[far] = 2.0 * (np.array(log_norms(sqrt_lam * r_new)) - log_norm)
        return gain

    chi_source = chi_square_source(stream)
    out = np.empty(rows)
    chunk = _chunk_rows(2 * lam.size)  # xi and chi are rows x G each
    for start in range(0, rows, chunk):
        xi, chi, q = draw_block(stream, chi_source, min(chunk, rows - start), groups)
        lin = sigma_hat * np.einsum("ij,j->i", xi, lam * norm_u)
        quad = sigma_hat * sigma_hat * q
        delta = lin + quad
        if not np.isfinite(delta).all():
            raise NumericalFailure("non-finite core decrement")
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
