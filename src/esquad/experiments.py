"""Convergence-rate measurement, sweeps, and the end-to-end verification suite.

The empirical rate is the endpoint difference of log f after a burn-in,
divided by 2 (log distance contracts at half the log-f slope on a quadratic),
averaged over independent trials.  Endpoint differencing matches the
definition of the rate as a limit and gives a clean standard error across
trials; per-step dependence makes within-trace standard errors misleading.

The verification suite is one table, ``_CHECKS``, run by one loop in
``verify_suite``.  A row names its check, its tolerance, an evaluator
``(suite, n, attempt) -> (passed, observed, bound, note)`` and a
precondition that returns the skip note when the configured problem cannot
support the check.  A statistical row goes through ``stat_retry``: a failure
at 3 standard errors reruns once at 4x n on a fresh substream.  Work that
several rows share (the invariance runs, the theory constants, the rate
measurement) is done once in ``_Suite``, and the rows that read no trace are
evaluated while forked workers do the runs; substreams are pure functions of
``(seed, path, label)``, so that order moves no byte.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import bounds as bounds_mod
from .bounds import TheoryConstants, constants as theory_constants
from .errors import (ConfigError, DegenerateState, InfeasibleBound, NumericalFailure,
                     config_errors)
from .es_core import EsParams, EsState, RunTrace, run_many
from .montecarlo import (
    McEstimate,
    estimate_drift_V,
    estimate_exp_abs,
    estimate_log_progress,
    estimate_success_prob,
)
from .potential import RegimeLabel, drift_target, potential_step_cap
from .quadratic import (
    CUBE,
    LOG1P,
    SQRT,
    QuadraticProblem,
    SpectrumStats,
    einsum_dot,
    problem_from_json,
    spectrum_stats,
)
from .stochastic import GENERATOR_ID, RandomStream, normal_vector, substream
from .version import VERSION

_SLOPE_FP_SLACK = 1e-9


@dataclass(frozen=True)
class RateEstimate:
    """Per-iteration decrease of log distance, with across-trial spread.

    ``a_hat`` is the mean over trials of
    -(log f(m_budget) - log f(m_burn_in)) / (2 (budget - burn_in));
    ``norm_a_hat`` is the same slope measured on log ||m - x*|| directly.
    The confidence interval is min/max of the trial slopes when trials < 5
    and mean +- 3 trial standard errors otherwise.
    """

    a_hat: float
    ci_low: float
    ci_high: float
    trials: int
    budget: int
    burn_in: int
    slope_source: str
    norm_a_hat: float
    trial_slopes: np.ndarray
    trial_norm_slopes: np.ndarray
    std_error: float

    def to_json(self) -> dict:
        return {
            "a_hat": self.a_hat,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "trials": self.trials,
            "budget": self.budget,
            "burn_in": self.burn_in,
            "slope_source": self.slope_source,
            "norm_a_hat": self.norm_a_hat,
            "std_error": self.std_error,
        }


def _norm(v: np.ndarray) -> float:
    """The Euclidean norm, not BLAS's (``quadratic.einsum_dot``): it reaches
    trace and report bytes through sigma0 and the Monte Carlo rows."""
    return math.sqrt(einsum_dot(v, v))


def default_sigma0(problem: QuadraticProblem, m0) -> float:
    """Step size inside the reasonable band up to constants:
    ||m0 - x*|| sqrt(L) / Tr(H)."""
    stats = spectrum_stats(problem)
    norm = _norm(problem.centered(m0))
    if norm == 0.0:
        raise DegenerateState("||m0 - x*|| underflows to 0")
    return norm * math.sqrt(stats.L) / stats.trace


def default_initial_state(problem: QuadraticProblem) -> EsState:
    """Unit-distance start along the all-ones direction with the default sigma."""
    m0 = np.ones(problem.d) / math.sqrt(problem.d) + problem.optimum
    return EsState(m0, math.log(default_sigma0(problem, m0)))


def measure_rate(
    problem: QuadraticProblem,
    params: EsParams,
    state0: EsState,
    budget: int,
    burn_in: int,
    trials: int,
    stream: RandomStream,
) -> Tuple[RateEstimate, RunTrace]:
    """Estimate the convergence rate over independent trials; returns the
    estimate and the first trial's trace.

    Each trial runs on its own substream.  The trials run through
    ``es_core.run_many``: on one CPU one after another in this process, on
    more CPUs split between this process and forked workers.  A trace depends
    only on its problem, start, parameters, budget and substream, so every
    estimate is bit-identical whatever the CPU count.  The log-f slope and the
    log-norm slope are both measured; per trial they must agree within
    log(U/L) / (2 (budget - burn_in)), a deterministic sandwich, so a
    violation raises NumericalFailure because it can only be a bug.
    """
    traces = run_many(_rate_jobs(problem, params, state0, budget, burn_in, trials, stream))
    return _rate_estimate(spectrum_stats(problem), traces, budget, burn_in), traces[0]


def _check_protocol(budget: int, burn_in: int, trials: int) -> None:
    if not (budget > burn_in >= 0):
        raise ConfigError("need budget > burn_in >= 0")
    if trials < 1:
        raise ConfigError("need trials >= 1")


def _rate_jobs(problem, params, state0, budget, burn_in, trials, stream) -> list:
    """The ``run_many`` jobs of ``measure_rate``'s trials, one substream each."""
    _check_protocol(budget, burn_in, trials)
    return [(problem, state0, params, budget, substream(stream, i)) for i in range(trials)]


def _rate_estimate(stats: SpectrumStats, traces, budget: int, burn_in: int) -> RateEstimate:
    """``measure_rate``'s estimate from the traces of its trials."""
    trials = len(traces)
    span = 2.0 * (budget - burn_in)
    gap_cap = math.log(stats.cond) / span + _SLOPE_FP_SLACK
    slopes = np.empty(trials)
    norm_slopes = np.empty(trials)
    for i, trace in enumerate(traces):
        if trace.hit_zero:
            raise NumericalFailure("core reached exact zero during rate measurement")
        slopes[i] = -(trace.log_f[budget] - trace.log_f[burn_in]) / span
        norm_slopes[i] = -(trace.log_norm[budget] - trace.log_norm[burn_in]) / (
            budget - burn_in
        )
        if abs(norm_slopes[i] - slopes[i]) > gap_cap:
            raise NumericalFailure(
                f"log-norm slope {norm_slopes[i]:.6g} deviates from log-f slope "
                f"{slopes[i]:.6g} beyond the deterministic cap {gap_cap:.6g}"
            )
    a_hat = float(np.mean(slopes))
    if trials < 2:
        se = float("nan")
    else:
        se = float(np.std(slopes, ddof=1) / math.sqrt(trials))
    if trials < 5:
        ci_low, ci_high = float(np.min(slopes)), float(np.max(slopes))
    else:
        ci_low, ci_high = a_hat - 3.0 * se, a_hat + 3.0 * se
    return RateEstimate(
        a_hat=a_hat,
        ci_low=ci_low,
        ci_high=ci_high,
        trials=trials,
        budget=budget,
        burn_in=burn_in,
        slope_source="logf",
        norm_a_hat=float(np.mean(norm_slopes)),
        trial_slopes=slopes,
        trial_norm_slopes=norm_slopes,
        std_error=se,
    )


@dataclass(frozen=True)
class SweepProtocol:
    budget: int
    burn_in: int
    trials: int
    seed: int

    def __post_init__(self):
        _check_protocol(self.budget, self.burn_in, self.trials)


SWEEP_COLUMNS = (
    "d",
    "cond",
    "trace",
    "L",
    "a_hat",
    "ci_low",
    "ci_high",
    "B_half",
    "lower_const",
)


def sweep(
    problems: Sequence[QuadraticProblem],
    params: Callable[[QuadraticProblem], EsParams],
    protocol: SweepProtocol,
) -> List[dict]:
    """One rate estimate per problem, plus the theorem constants where feasible.

    ``params`` maps a problem to its multipliers (the usual choice scales
    alpha with the dimension).
    Per-row failures land in the row's ``error`` entry and the sweep continues.
    The trials of all rows run as one ``run_many`` batch, so that the CPUs
    share them all; a run that fails there fails only its own row, and the
    other rows run again as a new batch.
    """
    if not problems:
        raise ConfigError("sweep needs at least one problem")
    rows, pending = [], []
    stream = RandomStream(protocol.seed, path=(0x5357,))
    for idx, problem in enumerate(problems):
        stats = spectrum_stats(problem)
        row = {
            "d": stats.d,
            "cond": stats.cond,
            "trace": stats.trace,
            "L": stats.L,
            "a_hat": None,
            "ci_low": None,
            "ci_high": None,
            "B_half": None,
            "lower_const": None,
            "error": None,
        }
        rows.append(row)
        try:
            p = params(problem)
            rate_args = (problem, p, default_initial_state(problem), protocol.budget,
                         protocol.burn_in, protocol.trials, substream(stream, idx))
            pending.append((row, stats, p, rate_args))
        except Exception as exc:  # per-row failure, recorded, sweep continues
            row["error"] = _error_text(exc)
    traces = None
    while traces is None:
        try:
            # new trial streams on each attempt, since a run advances its stream
            traces = run_many([job for *_, args in pending for job in _rate_jobs(*args)])
        except Exception as exc:
            # every row has protocol.trials jobs, in row order
            row, *_ = pending.pop(exc.job_index // protocol.trials)
            row["error"] = _error_text(exc)
    for k, (row, stats, p, _) in enumerate(pending):
        try:
            est = _rate_estimate(stats, traces[k * protocol.trials:(k + 1) * protocol.trials],
                                 protocol.budget, protocol.burn_in)
            row["a_hat"] = est.a_hat
            row["ci_low"] = est.ci_low
            row["ci_high"] = est.ci_high
            if stats.d > 3:
                row["lower_const"] = stats.cond / (2.0 * (stats.d - 3))
            try:
                row["B_half"] = theory_constants(stats, p).drift_bound / 2.0
            except InfeasibleBound as exc:
                row["error"] = f"constants infeasible: {exc}"
        except Exception as exc:
            row["error"] = _error_text(exc)
    return rows


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def sweep_csv(rows: List[dict]) -> str:
    """Render sweep rows with the documented column set."""

    def cell(value):
        if value is None:
            return ""
        if isinstance(value, float):
            return repr(value)
        return str(value)

    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(cell(row[c]) for c in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {"seed", "problem", "params", "run", "out_dir"}
# Smallest value of each run key; n_mc = 100 is the smallest n any estimator
# accepts.
_RUN_MIN = {"budget": 0, "burn_in": 0, "trials": 1, "n_mc": 100}

# Fixed substream labels; never derive labels from hash() of strings, which
# is randomized per process and would break byte-identical reruns.
_LBL_INVARIANCE = 1
_LBL_SANDWICH = 100
_LBL_QUALITY = 200
_LBL_EXP_MOMENT = 300
_LBL_DRIFT = {
    RegimeLabel.SMALL_STEP: 401,
    RegimeLabel.REASONABLE: 402,
    RegimeLabel.LARGE_STEP: 403,
}
_LBL_RATE = 500


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def validate_config(config: dict) -> dict:
    """Schema-check a verification config; unknown keys are rejected."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = _CONFIG_KEYS - {"out_dir"} - set(config)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    if not isinstance(config.get("out_dir"), (str, type(None))):
        raise ConfigError("out_dir must be a string or null")
    if not _is_int(config["seed"]):
        raise ConfigError("seed must be an integer")
    runcfg = config["run"]
    if not isinstance(runcfg, dict) or set(runcfg) != set(_RUN_MIN):
        raise ConfigError(f"run section must have exactly keys {sorted(_RUN_MIN)}")
    for key, low in _RUN_MIN.items():
        if not (_is_int(runcfg[key]) and runcfg[key] >= low):
            raise ConfigError(f"run.{key} must be an integer >= {low}")
    if not runcfg["budget"] > runcfg["burn_in"]:
        raise ConfigError("run.budget must exceed run.burn_in")
    pcfg = config["params"]
    if not isinstance(pcfg, dict) or set(pcfg) != {"alpha_up", "alpha_down"}:
        raise ConfigError("params section must have exactly alpha_up and alpha_down")
    with config_errors("problem or params"):
        problem = problem_from_json(config["problem"])
        params = EsParams(float(pcfg["alpha_up"]), float(pcfg["alpha_down"]))
    return {
        "seed": config["seed"],
        "problem": problem,
        "params": params,
        "run": dict(runcfg),
        "out_dir": config.get("out_dir"),
    }


@dataclass
class CheckResult:
    check_id: str
    status: str  # pass | fail | skip
    observed: Optional[float] = None
    bound: Optional[float] = None
    tolerance: Optional[str] = None
    seed: Optional[int] = None
    note: str = ""

    def to_json(self) -> dict:
        return asdict(self)


def stat_retry(check: Callable[[int, int], tuple], n: int) -> tuple:
    """Run a 3-standard-error check; on failure rerun it once at 4x n on a
    fresh substream (attempt index 1) before reporting failure.

    ``check(n, attempt)`` returns a tuple whose first item is the verdict and
    whose last is a note; a rerun's note ends in " (retried at 4x n)".
    """
    result = check(n, 0)
    if result[0]:
        return result
    *head, note = check(4 * n, 1)
    return (*head, note + " (retried at 4x n)")


class DriftCheck(NamedTuple):
    """The verdict of ``drift_check`` and the numbers it rests on."""

    passed: bool
    gap: float  # MC mean - target - 3 SE; the MC half passes at gap <= 0
    target: float
    cap: float
    estimate: McEstimate
    pathwise_max: float


def drift_check(problem: QuadraticProblem, state: EsState, regime: RegimeLabel,
                consts: TheoryConstants, params: EsParams, n: int,
                stream: RandomStream) -> DriftCheck:
    """The drift of the potential in ``regime``: the MC mean must be at most
    the regime's target + 3 SE, and every sample at most the exact pathwise
    cap."""
    target = drift_target(regime, consts, params)
    cap = potential_step_cap(consts, params)
    est, samples = estimate_drift_V(problem, state, consts, params, n, stream)
    gap = est.mean - target - 3 * est.std_error
    passed = gap <= 0.0 and bool(np.all(samples <= cap))
    return DriftCheck(passed, gap, target, cap, est, float(np.max(samples)))


class _Suite:
    """The inputs of every check row, and the work that several rows share:
    the invariance runs, the theory constants and the rate measurement.

    The invariance runs and the rate trials go to ``run_many`` as one batch.
    While forked workers run it, the caller sets the theory constants and
    calls ``meanwhile(suite)``, which may evaluate every row that reads no
    trace."""

    def __init__(self, cfg: dict, meanwhile: Callable[["_Suite"], None]):
        problem, params, run_cfg = cfg["problem"], cfg["params"], cfg["run"]
        self.problem, self.params, self.seed = problem, params, cfg["seed"]
        self.n_mc = run_cfg["n_mc"]
        self.stats = stats = spectrum_stats(problem)
        self.root = root = RandomStream(cfg["seed"])
        self.state0 = state0 = default_initial_state(problem)

        # The canonical run, one run per transform and an integer-shifted run
        # draw from the same substream, so they must match bit for bit; they
        # are independent, so they run as one batch.  They start from the
        # centred start rounded to a grid on which adding the integer shift is
        # exact, so the shifted run centres back to the very same start.
        y0 = problem.centered(state0.m)
        grid = 2.0 ** (math.frexp(float(np.max(np.abs(y0))) + problem.d)[1] - 52)
        y0 = np.round(y0 / grid) * grid
        shift = np.arange(1.0, problem.d + 1.0)
        centred = replace(problem, optimum=np.zeros(problem.d))
        start = EsState(y0, state0.log_sigma)
        starts = [(centred, start)]
        starts += [(replace(centred, transform=tag), start) for tag in (SQRT, LOG1P, CUBE)]
        starts.append((replace(problem, optimum=shift), EsState(y0 + shift, start.log_sigma)))
        jobs = [(p, s, params, min(1000, run_cfg["budget"]), substream(root, _LBL_INVARIANCE), True)
                for p, s in starts]
        budget, burn_in = run_cfg["budget"], run_cfg["burn_in"]
        jobs += _rate_jobs(problem, params, state0, budget, burn_in, run_cfg["trials"],
                           substream(root, _LBL_RATE))

        self.consts: Optional[TheoryConstants] = None
        self.infeasible: Optional[str] = None  # the skip note of theory_constants

        def untraced():
            try:
                self.consts = theory_constants(stats, params)
            except InfeasibleBound as exc:
                self.infeasible = f"infeasible: {exc}"
            meanwhile(self)

        traces = run_many(jobs, meanwhile=untraced)
        self.canonical, *self.transformed, self.shifted = traces[:len(starts)]
        self.first_trace = traces[len(starts)]
        self.rate = _rate_estimate(stats, traces[len(starts):], budget, burn_in)


def _same_run(s: _Suite, trace: RunTrace) -> bool:
    return (np.array_equal(s.canonical.m_centered, trace.m_centered)
            and np.array_equal(s.canonical.log_sigma, trace.log_sigma))


def _invariance_transform(s: _Suite, n: int, attempt: int) -> tuple:
    ok = all(_same_run(s, trace) for trace in s.transformed)
    return (ok, 0.0 if ok else math.inf, 0.0,
            "sqrt/log1p/cube runs bit-identical to the identity run")


def _invariance_translation(s: _Suite, n: int, attempt: int) -> tuple:
    ok = _same_run(s, s.shifted)
    return ok, 0.0 if ok else math.inf, 0.0, "integer-shifted run matches after centering"


def _monotonicity(s: _Suite, n: int, attempt: int) -> tuple:
    worst = float(np.max(np.diff(s.canonical.log_f)))
    return worst <= 0.0, worst, 0.0, ""


def _sigma_bookkeeping(s: _Suite, n: int, attempt: int) -> tuple:
    accepts = np.cumsum(s.canonical.accepted)
    expected = (s.state0.log_sigma + accepts * s.params.log_up
                + (s.canonical.t - accepts) * s.params.log_down)
    err = float(np.max(np.abs(expected - s.canonical.log_sigma)))
    return err <= 1e-9, err, 1e-9, ""


def _unit_point(problem: QuadraticProblem, stream: RandomStream):
    """A random point at distance 1 from the optimum, and its gradient norm."""
    direction = normal_vector(stream, problem.d)
    point = problem.optimum + direction / max(_norm(direction), 1e-12)
    return point, _norm(problem.gradient_core(point))


def _success_sandwich(s: _Suite, n: int, attempt: int) -> tuple:
    grad_norm = _norm(s.problem.gradient_core(s.state0.m))
    worst_gap = -math.inf
    notes = []
    base = substream(s.root, _LBL_SANDWICH + attempt)
    for k, sigma_norm in enumerate((0.25, 0.5, 1.0, 2.0, 4.0)):
        sigma = sigma_norm * grad_norm / s.stats.trace
        est = estimate_success_prob(s.problem, s.state0.m, sigma, n, substream(base, k))
        lower, upper = bounds_mod.success_prob_sandwich(s.stats, sigma_norm, 0.5)
        gap = max(lower - 3 * est.std_error - est.mean, est.mean - upper - 3 * est.std_error)
        worst_gap = max(worst_gap, gap)
        notes.append(f"s={sigma_norm}: {est.mean:.4f} in [{lower:.4f},{upper:.4f}]")
    return worst_gap <= 0.0, worst_gap, 0.0, "; ".join(notes)


def _quality_gain(s: _Suite, n: int, attempt: int) -> tuple:
    worst_gap = -math.inf
    base = substream(s.root, _LBL_QUALITY + attempt)
    for k in range(8):
        point, gnorm = _unit_point(s.problem, substream(base, 2 * k))
        sigma = gnorm / s.stats.trace * math.exp(2.0 * (k / 7.0 - 0.5))
        lhs = estimate_log_progress(s.problem, point, sigma, n, substream(base, 2 * k + 1))
        psucc = estimate_success_prob(s.problem, point, sigma, n, substream(base, 100 + k))
        rhs_coeff = bounds_mod.quality_gain_bound(s.stats, gnorm, s.problem.core(point),
                                                  sigma, 1.0)
        se = math.hypot(lhs.std_error, rhs_coeff * psucc.std_error)
        worst_gap = max(worst_gap, lhs.mean - rhs_coeff * psucc.mean - 3 * se)
    return worst_gap <= 0.0, worst_gap, 0.0, "8 random (m, sigma) instances"


def _exp_moment(s: _Suite, n: int, attempt: int) -> tuple:
    bound = bounds_mod.exp_moment_bound(s.stats, s.stats.d)
    worst_gap = -math.inf
    base = substream(s.root, _LBL_EXP_MOMENT + attempt)
    for k in range(4):
        point, gnorm = _unit_point(s.problem, substream(base, 2 * k))
        sigma = gnorm / s.stats.trace * math.exp(k - 1.5)
        est = estimate_exp_abs(s.problem, point, sigma, max(n, 1000),
                               substream(base, 2 * k + 1))
        worst_gap = max(worst_gap, est.mean - bound - 3 * est.std_error)
    return worst_gap <= 0.0, worst_gap, bound, "4 random sigmas"


def _theory_constants(s: _Suite, n: int, attempt: int) -> tuple:
    c = s.consts
    return True, c.drift_bound, 0.0, (
        f"q_low={c.q_low:.4f} q_high={c.q_high:.4f} band_gain={c.band_gain:.3e}")


def _drift(regime: RegimeLabel):
    """The evaluator of the drift row of ``regime``."""

    def evaluate(s: _Suite, n: int, attempt: int) -> tuple:
        state = _regime_states(s.problem, s.stats, s.consts, s.state0.m)[regime]
        res = drift_check(s.problem, state, regime, s.consts, s.params, max(n, 1000),
                          substream(s.root, _LBL_DRIFT[regime] + 10 * attempt))
        return res.passed, res.gap, res.target, (
            f"mean={res.estimate.mean:.3e} target={res.target:.3e} "
            f"pathwise max={res.pathwise_max:.3e} cap={res.cap:.3e}")

    return evaluate


def _rate_se(s: _Suite) -> float:
    return s.rate.std_error if math.isfinite(s.rate.std_error) else 0.0


def _rate_upper_cap(s: _Suite, n: int, attempt: int) -> tuple:
    cap = s.stats.cond / (2.0 * (s.stats.d - 3))
    return s.rate.a_hat <= cap + 3.0 * _rate_se(s), s.rate.a_hat, cap, ""


def _rate_lower_bound(s: _Suite, n: int, attempt: int) -> tuple:
    bound = s.consts.drift_bound / 2.0
    return bound - 3.0 * _rate_se(s) <= s.rate.a_hat, s.rate.a_hat, bound, ""


def _bound_limits(s: _Suite, n: int, attempt: int) -> tuple:
    """The limit values of the bound functions as the trace ratio vanishes."""
    tiny = SpectrumStats(d=10**12, L=1.0, U=1.0, trace=1e12, trace_sq=1e12, cond=1.0,
                         ratio=1e-12)
    bh, bl = bounds_mod.b_high(tiny, 0.2), bounds_mod.b_low(tiny, 0.3)
    bh_target = 2.0 * bounds_mod.normal_quantile(0.8)
    bl_target = 2.0 * bounds_mod.normal_quantile(0.7)
    err = max(abs(bh - bh_target), abs(bl - bl_target))
    return err <= 1e-3, err, 1e-3, (f"b_high(0.2)={bh:.6f} vs {bh_target:.6f}; "
                                    f"b_low(0.3)={bl:.6f} vs {bl_target:.6f}")


def _d_above_3(s: _Suite) -> Optional[str]:
    return None if s.stats.d > 3 else f"requires d > 3, got d={s.stats.d}"


def _feasible(s: _Suite) -> Optional[str]:
    return None if s.consts is not None else "theory constants infeasible for this problem/params"


class _Check(NamedTuple):
    check_id: str
    tolerance: str
    evaluate: Callable[[_Suite, int, int], tuple]  # -> (passed, observed, bound, note)
    statistical: bool  # goes through stat_retry
    traced: bool  # reads a trace, so waits for the suite's runs
    precondition: Optional[Callable[[_Suite], Optional[str]]]  # -> None, or the skip note


_CHECKS = (
    _Check("invariance_transform", "exact", _invariance_transform, False, True, None),
    _Check("invariance_translation", "exact", _invariance_translation, False, True, None),
    _Check("monotonicity", "exact", _monotonicity, False, True, None),
    _Check("sigma_bookkeeping", "1e-9 absolute", _sigma_bookkeeping, False, True, None),
    _Check("success_sandwich", "3 SE, epsilon=0.5", _success_sandwich, True, False, None),
    _Check("quality_gain", "3 SE (combined)", _quality_gain, True, False, None),
    _Check("exp_moment", "3 SE", _exp_moment, True, False, _d_above_3),
    _Check("theory_constants", "drift_bound > 0", _theory_constants, False, False,
           lambda s: s.infeasible),
    *(_Check(f"drift_{regime.value}", "3 SE + exact pathwise cap", _drift(regime), True,
             False, _feasible) for regime in _LBL_DRIFT),
    _Check("rate_upper_cap", "3 trial SE", _rate_upper_cap, False, True,
           lambda s: None if s.stats.d > 3 else "requires d > 3"),
    _Check("rate_lower_bound", "3 trial SE", _rate_lower_bound, False, True, _feasible),
    _Check("bound_limits", "1e-3 absolute", _bound_limits, False, False, None),
)


def _evaluate(s: _Suite, row: _Check) -> CheckResult:
    skip = row.precondition and row.precondition(s)
    if skip is not None:
        return CheckResult(row.check_id, "skip", seed=s.seed, note=skip)
    evaluate = partial(row.evaluate, s)
    passed, observed, bound, note = (
        stat_retry(evaluate, s.n_mc) if row.statistical else evaluate(s.n_mc, 0))
    return CheckResult(row.check_id, "pass" if passed else "fail", observed, bound,
                       row.tolerance, s.seed, note)


def verify_suite(config: dict) -> dict:
    """Run every verification check the configuration supports.

    Returns a machine-readable report; each check echoes its seed and
    tolerance.  Statistical checks that fail at 3 standard errors rerun once
    at 4x the sample count before being reported as failures.  Checks whose
    preconditions the configured problem cannot meet (dimension too small,
    infeasible theory constants) are reported as skips with the diagnosis,
    not as failures.

    The rows that read no trace (the Monte Carlo rows, the theory constants
    and the bound limits) are evaluated while forked workers run the suite's
    ES runs, and the rows that read a trace once the runs are done; the
    report lists the rows in table order.  Every row draws from its own
    substream, so neither the split nor the CPU count moves a byte.

    The returned dict carries non-JSON artifacts (first trace, rate estimate)
    under the "_artifacts" key; strip it before serializing.
    """
    cfg = validate_config(config)
    untraced = {}
    s = _Suite(cfg, lambda s: untraced.update(
        (row.check_id, _evaluate(s, row)) for row in _CHECKS if not row.traced))
    checks = [_evaluate(s, row) if row.traced else untraced[row.check_id] for row in _CHECKS]
    count = {status: sum(c.status == status for c in checks)
             for status in ("pass", "fail", "skip")}
    return {
        "version": VERSION,
        "generator_id": GENERATOR_ID,
        "seed": s.seed,
        "config_echo": {
            "problem": s.problem.to_json(),
            "params": s.params.to_json(),
            "run": cfg["run"],
        },
        "checks": [c.to_json() for c in checks],
        "n_pass": count["pass"],
        "n_fail": count["fail"],
        "n_skip": count["skip"],
        "ok": count["fail"] == 0,
        "_artifacts": {"first_trace": s.first_trace, "rate": s.rate},
    }


def _regime_states(problem, stats, consts, m0):
    """One state per regime: far below the band, inside it (geometric mean of
    the edges), and far above it."""
    y = problem.centered(m0)
    f_val = problem.core_centered(y)
    grad_norm = problem.grad_norm_centered(y)
    thr_small = (
        math.sqrt(2.0)
        * consts.b_high_at_qhigh
        * math.sqrt(stats.L * f_val)
        / stats.trace
    )
    thr_large = consts.b_low_at_qlow * grad_norm / stats.trace
    return {
        RegimeLabel.SMALL_STEP: EsState(m0, math.log(thr_small) - 3.0),
        RegimeLabel.REASONABLE: EsState(
            m0, 0.5 * (math.log(thr_small) + math.log(thr_large))
        ),
        RegimeLabel.LARGE_STEP: EsState(m0, math.log(thr_large) + 3.0),
    }
