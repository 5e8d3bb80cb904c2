"""Potential function, step-size regimes, and per-regime drift targets.

The potential adds to log f(m) two nonnegative penalties that grow when sigma
is far too small or far too large for the current distance to the optimum:

    V = log f + v log+(b_small sqrt(L f) / (Tr(H) sigma))
              + v log+(Tr(H) sigma / (b_large sqrt(L f)))

with log+(x) = log(x) for x >= 1 and 0 otherwise.  Because b_small < b_large,
at most one penalty is active at a time.  The state space splits into three
regimes by where sigma sits relative to the band (``band_edges``, ``classify``);
inside the band the expected log-f decrease is guaranteed, outside it the
active penalty shrinks in expectation.  All formulas work on log f and
log sigma directly (``potential_from_logs``) so they remain exact arbitrarily
deep into a run.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, Tuple

import numpy as np

from .bounds import TheoryConstants, drift_rate
from .quadratic import QuadraticProblem, SpectrumStats, spectrum_stats

if TYPE_CHECKING:
    from .es_core import EsParams, EsState

_SQRT2 = math.sqrt(2.0)


class RegimeLabel(Enum):
    SMALL_STEP = "small"
    LARGE_STEP = "large"
    REASONABLE = "reasonable"


def band_edges(
    problem: QuadraticProblem, y: np.ndarray, constants: TheoryConstants
) -> Tuple[float, float]:
    """log of the two band edges at the centred point y, (small, large).

    The alpha factors in b_small and b_large cancel against the hypotheses'
    alpha factors, leaving the edges sqrt(2) b_high(q_high) sqrt(L f)/Tr and
    b_low(q_low) ||grad||/Tr.  Computed from log f and log ||grad||, so they
    stay finite where f underflows.
    """
    stats = spectrum_stats(problem)
    log_small = (
        math.log(_SQRT2)
        + math.log(constants.b_high_at_qhigh)
        + 0.5 * (math.log(stats.L) + problem.log_core_centered(y))
        - math.log(stats.trace)
    )
    log_large = (
        math.log(constants.b_low_at_qlow)
        + problem.log_grad_norm_centered(y)
        - math.log(stats.trace)
    )
    return log_small, log_large


def classify(
    state: "EsState", problem: QuadraticProblem, constants: TheoryConstants
) -> RegimeLabel:
    """Regime of an algorithm state by where log sigma sits against
    ``band_edges``; the edges never overlap because b_small < b_large and
    sqrt(2 L f) <= ||grad||.  Boundary states (equalities) classify as
    REASONABLE."""
    log_small, log_large = band_edges(problem, problem.centered(state.m), constants)
    if state.log_sigma < log_small:
        return RegimeLabel.SMALL_STEP
    if state.log_sigma > log_large:
        return RegimeLabel.LARGE_STEP
    return RegimeLabel.REASONABLE


def potential_from_logs(log_f, log_sigma, stats: SpectrumStats, constants: TheoryConstants):
    """Potential value(s) from log f and log sigma; accepts scalars or arrays."""
    v = constants.penalty_weight
    half_llf = 0.5 * (math.log(stats.L) + np.asarray(log_f, dtype=float))
    log_tr_sigma = math.log(stats.trace) + np.asarray(log_sigma, dtype=float)
    small_pen = np.maximum(math.log(constants.b_small) + half_llf - log_tr_sigma, 0.0)
    large_pen = np.maximum(log_tr_sigma - math.log(constants.b_large) - half_llf, 0.0)
    out = np.asarray(log_f, dtype=float) + v * small_pen + v * large_pen
    if out.ndim == 0:
        return float(out)
    return out


def drift_target(
    regime: RegimeLabel, constants: TheoryConstants, params: "EsParams"
) -> float:
    """Guaranteed upper bound on E[V(next) - V(current)] in the given regime."""
    if regime is RegimeLabel.REASONABLE:
        return -constants.band_gain / 4.0
    gap = (constants.q_high - constants.p_target if regime is RegimeLabel.SMALL_STEP
           else constants.p_target - constants.q_low)
    return -float(drift_rate(constants.band_gain, params.log_ratio, gap))


def potential_step_cap(constants: TheoryConstants, params: "EsParams") -> float:
    """Pathwise upper bound on any one-step potential change:
    v * log(alpha_up / alpha_down)."""
    return constants.penalty_weight * params.log_ratio


def potential_step_floor(
    delta_log_f, constants: TheoryConstants, params: "EsParams"
):
    """Pathwise lower bound on a one-step potential change given the
    realized log-f change: (1+v) dlogf - 2 v log(alpha_up) + v log(alpha_down)."""
    v = constants.penalty_weight
    return (
        (1.0 + v) * np.asarray(delta_log_f, dtype=float)
        - 2.0 * v * params.log_up
        + v * params.log_down
    )
