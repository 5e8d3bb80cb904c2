"""Closed-form machinery of the drift analysis on convex quadratics.

Everything here is a pure function of spectrum statistics and the step-size
multipliers: the normal CDF/quantile, the success-probability sandwich, the
step-size threshold functions and their feasibility conditions, the potential
function constants, and the convergence-rate bounds.

Central normalization: ``sigma_norm = sigma * Tr(H) / ||grad h(m)||``.  The
success probability is controlled by where sigma_norm sits relative to the
threshold functions ``b_high`` (below: success probability exceeds q) and
``b_low`` (above: success probability falls below q).  The quality of that
control degrades with ``ratio = Tr(H^2)/Tr(H)^2``, which measures how far the
quadratic form z^T H z is from concentrating at its mean.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DomainError, InfeasibleBound
from .quadratic import SpectrumStats

if TYPE_CHECKING:
    from .es_core import EsParams

SQRT_2PI = math.sqrt(2.0 * math.pi)
FOUR_OVER_SQRT_2PI = 4.0 / SQRT_2PI

_EPS_GRID = 512
_GOLDEN_ITERS = 60
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# the (q_low, q_high) search of ``constants``: points per axis on the first
# grid, then rounds of local refinement with this many points per axis
_PAIR_GRID = 128
_REFINE_ROUNDS = 2
_REFINE_GRID = 32


def normal_cdf(x):
    """Standard normal CDF, accurate to ~1e-15 relative in both tails."""
    if np.isscalar(x):
        return float(ndtr(x))
    return ndtr(np.asarray(x, dtype=float))


def normal_quantile(p):
    """Inverse standard normal CDF on (0, 1)."""
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("quantile argument must lie strictly inside (0, 1)")
    if np.isscalar(p):
        return float(ndtri(p))
    return ndtri(arr)


def trace_condition_threshold() -> float:
    """(1/8) * min{Phi(1/sqrt(2*pi)) - 1/2, 1 - Phi(3/sqrt(2*pi))}."""
    a = float(ndtr(1.0 / SQRT_2PI)) - 0.5
    b = 1.0 - float(ndtr(3.0 / SQRT_2PI))
    return min(a, b) / 8.0


def trace_condition(stats: SpectrumStats) -> Tuple[bool, float]:
    """Whether ratio clears the admissibility threshold, and the slack."""
    thr = trace_condition_threshold()
    return stats.ratio < thr, thr - stats.ratio


def success_prob_sandwich(
    stats: SpectrumStats, sigma_norm: float, epsilon: float
) -> Tuple[float, float]:
    """Two-sided bound on Pr[f(m + sigma z) <= f(m)] at a given sigma_norm.

    lower = Phi(-sigma_norm (1+eps) / 2) - 2 ratio / eps^2
    upper = Phi(-sigma_norm (1-eps) / 2) + 2 ratio / eps^2

    Values are returned raw; they may fall outside [0, 1] when the slack term
    dominates, and callers clamp only at reporting time.
    """
    if not sigma_norm > 0:
        raise DomainError("sigma_norm must be > 0")
    if not epsilon > 0:
        raise DomainError("epsilon must be > 0")
    slack = 2.0 * stats.ratio / (epsilon * epsilon)
    lower = float(ndtr(-0.5 * sigma_norm * (1.0 + epsilon))) - slack
    upper = float(ndtr(-0.5 * sigma_norm * (1.0 - epsilon))) + slack
    return lower, upper


def _sup_on_grid(f, log_lo: float, log_hi: float) -> Tuple[float, float]:
    """Supremum of f(eps) over eps in [exp(log_lo), exp(log_hi)].

    f takes an array or a float and gives nan or -inf where it is undefined,
    which must be to the left of where it is defined.  f need not be
    unimodal, so a 512-point log-spaced grid finds the best point first; a
    golden-section search then refines between that point's neighbours,
    keeping the surviving interior point so that each step costs one
    evaluation.  Returns (argsup, sup) as floats, (nan, -inf) when f is
    undefined on the whole grid.
    """
    eps = np.exp(np.linspace(log_lo, log_hi, _EPS_GRID))
    vals = f(eps)
    vals[np.isnan(vals)] = -np.inf
    i = int(np.argmax(vals))
    best = float(eps[i]), float(vals[i])
    if best[1] == -math.inf:
        return math.nan, -math.inf
    a, b = float(eps[max(i - 1, 0)]), float(eps[min(i + 1, _EPS_GRID - 1)])
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_ITERS):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    v = float(f(x))
    return (x, v) if v > best[1] else best


def b_high(stats: SpectrumStats, q: float, with_epsilon: bool = False):
    """Threshold function for guaranteed success: sigma_norm <= b_high(q)
    implies success probability > q.

    The sup over eps > sqrt(4 ratio / (1 - 2q)) of
    2 QuantilePhi(1 - (q + 2 ratio / eps^2)) / (1 + eps): the largest
    sigma_norm whose sandwich lower side reaches q for some eps.
    """
    if not 0.0 < q < 0.5:
        raise DomainError("q must lie in (0, 1/2)")
    r = stats.ratio
    lo = math.sqrt(4.0 * r / (1.0 - 2.0 * q))

    def f(e):
        return 2.0 * ndtri(1.0 - (q + 2.0 * r / (e * e))) / (1.0 + e)

    x, v = _sup_on_grid(f, math.log(lo) + 1e-12, math.log(max(32.0, 16.0 * lo)))
    if v == -math.inf:
        raise InfeasibleBound("b_high: no admissible epsilon found numerically")
    return (v, x) if with_epsilon else v


def b_low(stats: SpectrumStats, q: float, with_epsilon: bool = False):
    """Threshold function for guaranteed failure: sigma_norm >= b_low(q)
    implies success probability < q.

    The inf over eps in (sqrt(2 ratio / q), 1) of
    2 QuantilePhi(1 - (q - 2 ratio / eps^2)) / (1 - eps): the smallest
    sigma_norm whose sandwich upper side falls to q for some eps.  The grid
    stays strictly inside that interval.  When q is so close to 2 ratio
    that the interval holds no grid, the result is +inf, the infimum over an
    empty set, with eps nan.  Requires ratio < 1/4 and q in (2 ratio, 1/2).
    """
    if not 0.0 < q < 0.5:
        raise DomainError("q must lie in (0, 1/2)")
    r = stats.ratio
    if r >= 0.25:
        raise InfeasibleBound(f"b_low undefined: ratio {r:.4g} >= 1/4")
    if q <= 2.0 * r:
        raise DomainError(f"q must exceed 2*ratio = {2 * r:.4g}")
    log_lo = math.log(math.sqrt(2.0 * r / q))
    inset = min(1e-12, -0.25 * log_lo)
    if not 1.0 - inset < 1.0:
        return (math.inf, math.nan) if with_epsilon else math.inf

    def f(e):
        return -2.0 * ndtri(1.0 - (q - 2.0 * r / (e * e))) / (1.0 - e)

    x, v = _sup_on_grid(f, log_lo + inset, math.log(1.0 - inset))
    return (-v, x) if with_epsilon else -v


def _success_floor(stats: SpectrumStats, threshold: float) -> float:
    """Q_H, the largest Q with b_high(Q) >= threshold, in closed form.

    b_high(Q) >= T holds exactly when Q <= Phi(-T (1+eps)/2) - 2 ratio / eps^2
    for some eps > 0, so Q_H is the sup over eps of that sandwich lower
    side.  It is negative for eps <= 2 sqrt(ratio).  The grid ends at
    eps = 32; cutting a maximizer beyond it only lowers Q_H, which stays a
    valid floor.
    """
    r = stats.ratio

    def lower_side(e):
        return ndtr(-0.5 * threshold * (1.0 + e)) - 2.0 * r / (e * e)

    _, floor = _sup_on_grid(lower_side, math.log(2.0 * math.sqrt(r)), math.log(32.0))
    if not floor > 0.0:
        raise InfeasibleBound("no Q > 0 with b_high(Q) >= b_low(q_low)")
    return floor


def _q_low_edge(stats: SpectrumStats) -> float:
    """The inf of the q with b_low(q) < T0 = 4/sqrt(2 pi), in closed form.

    b_low(q) < T0 holds exactly when q > Phi(-T0 (1-eps)/2) + 2 ratio / eps^2
    for some eps in (0, 1), so the edge is the inf over eps of that sandwich
    upper side.  It exceeds 1/2 for eps <= 2 sqrt(ratio).
    """
    r = stats.ratio

    def negated_upper_side(e):
        return -(ndtr(-0.5 * FOUR_OVER_SQRT_2PI * (1.0 - e)) + 2.0 * r / (e * e))

    log_lo = math.log(2.0 * math.sqrt(r))
    return -_sup_on_grid(negated_upper_side, log_lo, math.log(1.0 - 1e-12))[1]


def q_h(stats: SpectrumStats, q_low: float) -> float:
    """Success-probability floor inside the reasonable step-size band.

    The largest Q with b_high(Q) >= T, T = b_low(q_low), in closed form:
    Q_H = sup over eps > 0 of Phi(-T (1+eps)/2) - 2 ratio / eps^2.
    """
    target = b_low(stats, q_low)
    if target >= FOUR_OVER_SQRT_2PI:
        raise InfeasibleBound(
            f"q_low infeasible: b_low({q_low:.4g}) = {target:.4g} "
            f">= 4/sqrt(2 pi) = {FOUR_OVER_SQRT_2PI:.4g}"
        )
    return _success_floor(stats, target)


@dataclass(frozen=True)
class TheoryConstants:
    """Per-problem bundle of every constant appearing in the rate analysis.

    trace_ratio     Tr(H^2)/Tr(H)^2 of the problem.
    p_target        stationary success probability of the step-size control.
    q_low, q_high   success-probability brackets chosen by the search,
                    2*trace_ratio < q_low < p_target < q_high < 1/2.
    b_high_at_qhigh, b_low_at_qlow
                    threshold-function values at the chosen brackets, with
                    4/sqrt(2 pi) > b_low_at_qlow > (a_up/a_down) * b_high_at_qhigh.
    eps_high, eps_low
                    the epsilon optimizers achieved inside b_high / b_low.
    success_floor   guaranteed success probability in the reasonable band (Q_H).
    band_gain       guaranteed expected one-step decrease of log f in the
                    reasonable band (w > 0).
    penalty_weight  weight v = min(band_gain / (4 log(a_up/a_down)), 1) of the
                    step-size penalty terms in the potential function.
    b_small, b_large
                    potential-function coefficients sqrt(2)*b_high_at_qhigh*a_up
                    and sqrt(2)*b_low_at_qlow*a_down, with 0 < b_small < b_large.
    drift_bound     uniform expected one-step decrease of the potential (B);
                    the convergence exponent of log distance is at least
                    drift_bound / 2.
    rate_cap        cond / (2 (d - 3)): almost-sure cap on the per-step decrease
                    of log distance.
    """

    trace_ratio: float
    p_target: float
    q_low: float
    q_high: float
    b_high_at_qhigh: float
    b_low_at_qlow: float
    eps_high: float
    eps_low: float
    success_floor: float
    band_gain: float
    penalty_weight: float
    b_small: float
    b_large: float
    drift_bound: float
    rate_cap: float

    def validate(self, params: "EsParams") -> None:
        """Assert every structural invariant of the bundle."""
        c = self
        checks = [
            (2.0 * c.trace_ratio < c.q_low < c.p_target, "q_condition1 lower"),
            (c.p_target < c.q_high < 0.5, "q_condition1 upper"),
            (FOUR_OVER_SQRT_2PI > c.b_low_at_qlow, "q_condition2 left"),
            (
                c.b_low_at_qlow
                > (params.alpha_up / params.alpha_down) * c.b_high_at_qhigh,
                "q_condition2 right",
            ),
            (0.0 < c.b_small < c.b_large, "b_small < b_large"),
            (c.band_gain > 0.0, "band_gain positive"),
            (0.0 < c.penalty_weight <= 1.0, "penalty_weight in (0, 1]"),
            (c.drift_bound > 0.0, "drift_bound positive"),
            (c.success_floor > 0.0, "success_floor positive"),
        ]
        for ok, name in checks:
            if not ok:
                raise InfeasibleBound(f"TheoryConstants invariant violated: {name}")

    def to_json(self) -> dict:
        return {k: float(v) for k, v in asdict(self).items()}


def _band_gain(stats: SpectrumStats, bh: float, bl: float, floor: float) -> float:
    return (stats.L * bh / (2.0 * stats.trace)) * (FOUR_OVER_SQRT_2PI - bl) * floor


def constants(stats: SpectrumStats, params: "EsParams") -> TheoryConstants:
    """Search the admissible (q_low, q_high) rectangle for the best rate bound.

    The objective is min{band_gain/4, log(a_up/a_down)} * min{p_target - q_low,
    q_high - p_target}; any admissible pair yields a valid bound, so the grid
    search plus local refinement may undershoot the abstract supremum without
    harming soundness.  Ties prefer the wider q_high - q_low gap.  The q_low
    axis spans (edge, p_target), where the edge is the closed-form inf of the
    q with b_low(q) < 4/sqrt(2 pi) (``_q_low_edge``); each grid q_low's
    success floor Q_H comes in closed form from the b_low value the search
    already holds.

    Raises InfeasibleBound naming the first violated inequality when no
    admissible pair exists.
    """
    r = stats.ratio
    ok, slack = trace_condition(stats)
    if not ok:
        raise InfeasibleBound(
            f"trace condition failed: ratio {r:.6g} >= threshold "
            f"{trace_condition_threshold():.6g}"
        )
    if stats.d <= 3:
        raise DomainError("rate_cap requires d > 3")
    pt = params.p_target
    if not pt < 0.5:
        raise InfeasibleBound("q_condition1: p_target must be < 1/2 to admit q_high")
    if not pt > 2.0 * r:
        raise InfeasibleBound("q_condition1: p_target must exceed 2*ratio to admit q_low")
    bl_at_pt = b_low(stats, pt)
    if not bl_at_pt < FOUR_OVER_SQRT_2PI:
        raise InfeasibleBound(
            f"p_target condition failed: b_low(p_target={pt:.6g}) = {bl_at_pt:.6g} "
            f">= 4/sqrt(2 pi) = {FOUR_OVER_SQRT_2PI:.6g}; "
            "no q_low below p_target can satisfy q_condition2"
        )

    # b_low is strictly decreasing, so the feasible q_low region is exactly
    # (edge, p_target)
    edge = _q_low_edge(stats)
    ratio_alpha = params.alpha_up / params.alpha_down
    log_ratio = params.log_ratio

    def search(ql_lo, ql_hi, qh_lo, qh_hi, n):
        q_lows = np.linspace(ql_lo, ql_hi, n + 2)[1:-1]
        q_highs = np.linspace(qh_lo, qh_hi, n + 2)[1:-1]
        bls = np.array([b_low(stats, q) for q in q_lows])
        feasible_l = bls < FOUR_OVER_SQRT_2PI
        floors = np.array(
            [_success_floor(stats, bl) if ok else np.nan for bl, ok in zip(bls, feasible_l)]
        )
        bhs = np.array([b_high(stats, q) for q in q_highs])
        w = _band_gain(stats, bhs[None, :], bls[:, None], floors[:, None])
        obj = np.minimum(w / 4.0, log_ratio) * np.minimum(
            pt - q_lows[:, None], q_highs[None, :] - pt
        )
        bad = (
            ~feasible_l[:, None]
            | (bls[:, None] <= ratio_alpha * bhs[None, :])
            | ~(w > 0.0)
        )
        obj = np.where(bad, -np.inf, obj)
        if not np.any(np.isfinite(obj)):
            return None
        best = obj.max()
        ties = np.argwhere(obj == best)
        gaps = q_highs[ties[:, 1]] - q_lows[ties[:, 0]]
        i, j = ties[int(np.argmax(gaps))]
        return float(q_lows[i]), float(q_highs[j]), best

    found = search(edge, pt, pt, 0.5, _PAIR_GRID)
    if found is None:
        raise InfeasibleBound(
            "no admissible (q_low, q_high) pair on the search grid: "
            f"q_low range ({edge:.6g}, {pt:.6g}), "
            f"required b_low(q_low) > {ratio_alpha:.6g} * b_high(q_high)"
        )
    step_l = (pt - edge) / (_PAIR_GRID + 1)
    step_h = (0.5 - pt) / (_PAIR_GRID + 1)
    for _ in range(_REFINE_ROUNDS):
        ql, qh, _ = found
        cand = search(
            max(ql - step_l, edge),
            min(ql + step_l, pt),
            max(qh - step_h, pt),
            min(qh + step_h, 0.5),
            _REFINE_GRID,
        )
        if cand is not None and cand[2] >= found[2]:
            found = cand
        step_l /= _REFINE_GRID / 2.0
        step_h /= _REFINE_GRID / 2.0

    q_low_star, q_high_star, bound = found
    bl, eps_low = b_low(stats, q_low_star, with_epsilon=True)
    bh, eps_high = b_high(stats, q_high_star, with_epsilon=True)
    floor = q_h(stats, q_low_star)
    w = _band_gain(stats, bh, bl, floor)
    v = min(w / (4.0 * log_ratio), 1.0)
    result = TheoryConstants(
        trace_ratio=r,
        p_target=pt,
        q_low=q_low_star,
        q_high=q_high_star,
        b_high_at_qhigh=bh,
        b_low_at_qlow=bl,
        eps_high=eps_high,
        eps_low=eps_low,
        success_floor=floor,
        band_gain=w,
        penalty_weight=v,
        b_small=math.sqrt(2.0) * bh * params.alpha_up,
        b_large=math.sqrt(2.0) * bl * params.alpha_down,
        drift_bound=min(w / 4.0, log_ratio)
        * min(pt - q_low_star, q_high_star - pt),
        rate_cap=stats.cond / (2.0 * (stats.d - 3)),
    )
    result.validate(params)
    return result


def quality_gain_bound(
    stats: SpectrumStats, grad_norm: float, f_val: float, sigma: float, p_succ: float
) -> float:
    """Upper bound on E[log(f(m + sigma z)/f(m)) * 1{accept}].

    (sigma ||grad|| / f) * (sigma Tr(H) / (4 ||grad||) - 1/sqrt(2 pi)) * p_succ.
    """
    if not (grad_norm > 0 and f_val > 0 and sigma > 0):
        raise DomainError("grad_norm, f_val and sigma must be positive")
    if not 0.0 <= p_succ <= 1.0:
        raise DomainError("p_succ must lie in [0, 1]")
    lead = sigma * grad_norm / f_val
    bracket = sigma * stats.trace / (4.0 * grad_norm) - 1.0 / SQRT_2PI
    return lead * bracket * p_succ


def exp_moment_bound(stats: SpectrumStats, d: int) -> float:
    """Bound 1 + U / ((d - 3) L) on E[exp(|log f-ratio| * 1{accept})]."""
    if d <= 3:
        raise DomainError("exp_moment_bound requires d > 3")
    return 1.0 + stats.cond / (d - 3.0)
