"""Potential function, step-size regimes, and per-regime drift targets.

The potential adds to log f(m) two nonnegative penalties that grow when sigma
is far too small or far too large for the current distance to the optimum:

    V = log f + v log+(b_small sqrt(L f) / (Tr(H) sigma))
              + v log+(Tr(H) sigma / (b_large sqrt(L f)))

with log+(x) = log(x) for x >= 1 and 0 otherwise.  Because b_small < b_large,
at most one penalty is active at a time.  The state space splits into three
regimes by where sigma sits relative to the band; inside the band the expected
log-f decrease is guaranteed, outside it the active penalty shrinks in
expectation.  All formulas work on log f and log sigma directly so they remain
exact arbitrarily deep into a run.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .bounds import TheoryConstants
from .quadratic import QuadraticProblem, SpectrumStats, spectrum_stats

if TYPE_CHECKING:
    from .es_core import EsParams, EsState

_SQRT2 = math.sqrt(2.0)


class RegimeLabel(Enum):
    SMALL_STEP = "small"
    LARGE_STEP = "large"
    REASONABLE = "reasonable"


def classify_from_logs(
    log_f: float,
    log_grad_norm: float,
    log_sigma: float,
    stats: SpectrumStats,
    constants: TheoryConstants,
) -> RegimeLabel:
    """Regime of a state given log f, log ||grad|| and log sigma.

    The boundaries are the band edges of the analysis; the alpha factors in
    b_small and b_large cancel against the hypotheses' alpha factors, leaving
    thresholds sqrt(2) b_high(q_high) sqrt(L f)/Tr and b_low(q_low) ||grad||/Tr.
    Boundary states (equalities) classify as REASONABLE.
    """
    log_thr_small = (
        math.log(_SQRT2)
        + math.log(constants.b_high_at_qhigh)
        + 0.5 * (math.log(stats.L) + log_f)
        - math.log(stats.trace)
    )
    if log_sigma < log_thr_small:
        return RegimeLabel.SMALL_STEP
    log_thr_large = (
        math.log(constants.b_low_at_qlow) + log_grad_norm - math.log(stats.trace)
    )
    if log_sigma > log_thr_large:
        return RegimeLabel.LARGE_STEP
    return RegimeLabel.REASONABLE


def classify(
    state: "EsState", problem: QuadraticProblem, constants: TheoryConstants
) -> RegimeLabel:
    """Regime of an algorithm state; the two thresholds never overlap because
    b_small < b_large and sqrt(2 L f) <= ||grad||."""
    y = problem.centered(state.m)
    return classify_from_logs(
        problem.log_core_centered(y),
        problem.log_grad_norm_centered(y),
        state.log_sigma,
        spectrum_stats(problem),
        constants,
    )


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


def potential_value(
    state: "EsState", problem: QuadraticProblem, constants: TheoryConstants
) -> float:
    """V(state) >= log f(m), computed without exponentiating."""
    y = problem.centered(state.m)
    return potential_from_logs(
        problem.log_core_centered(y), state.log_sigma, spectrum_stats(problem), constants
    )


def drift_target(
    regime: RegimeLabel, constants: TheoryConstants, params: "EsParams"
) -> float:
    """Guaranteed upper bound on E[V(next) - V(current)] in the given regime."""
    min_term = min(constants.band_gain / 4.0, params.log_ratio)
    if regime is RegimeLabel.SMALL_STEP:
        return -min_term * (constants.q_high - constants.p_target)
    if regime is RegimeLabel.LARGE_STEP:
        return -min_term * (constants.p_target - constants.q_low)
    return -constants.band_gain / 4.0


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
