"""Convergence-rate measurement, sweeps, and the end-to-end verification suite.

The empirical rate is the endpoint difference of log f after a burn-in,
divided by 2 (log distance contracts at half the log-f slope on a quadratic),
averaged over independent trials.  Endpoint differencing matches the
definition of the rate as a limit and gives a clean standard error across
trials; per-step dependence makes within-trace standard errors misleading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from . import bounds as bounds_mod
from .bounds import TheoryConstants, constants as theory_constants
from .errors import ConfigError, DegenerateStart, InfeasibleBound, NumericalFailure
from .es_core import EsParams, EsState, run_many
from .montecarlo import (
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


def default_sigma0(problem: QuadraticProblem, m0) -> float:
    """Step size inside the reasonable band up to constants:
    ||m0 - x*|| sqrt(L) / Tr(H)."""
    stats = spectrum_stats(problem)
    norm = float(np.linalg.norm(np.asarray(m0, dtype=float) - problem.optimum))
    if norm == 0.0:
        raise DegenerateStart("m0 coincides with the optimum")
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
    keep_first_trace: bool = False,
):
    """Estimate the convergence rate over independent trials.

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
    est = _rate_estimate(spectrum_stats(problem), traces, budget, burn_in)
    if keep_first_trace:
        return est, traces[0]
    return est


def _rate_jobs(problem, params, state0, budget, burn_in, trials, stream) -> list:
    """The ``run_many`` jobs of ``measure_rate``'s trials, one substream each."""
    if not (budget > burn_in >= 0):
        raise ConfigError("need budget > burn_in >= 0")
    if trials < 1:
        raise ConfigError("need trials >= 1")
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
    params: Union[EsParams, Callable[[QuadraticProblem], EsParams]],
    protocol: SweepProtocol,
) -> List[dict]:
    """One rate estimate per problem, plus the theorem constants where feasible.

    ``params`` is either a fixed EsParams or a callable mapping a problem to
    its multipliers (the usual choice scales alpha with the dimension).
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
            p = params(problem) if callable(params) else params
            rate_args = (problem, p, default_initial_state(problem), protocol.budget,
                         protocol.burn_in, protocol.trials, substream(stream, idx))
            _rate_jobs(*rate_args)  # checks the protocol
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
_RUN_KEYS = {"budget", "burn_in", "trials", "n_mc"}

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
    if not isinstance(config["seed"], int) or isinstance(config["seed"], bool):
        raise ConfigError("seed must be an integer")
    runcfg = config["run"]
    if not isinstance(runcfg, dict) or set(runcfg) != _RUN_KEYS:
        raise ConfigError(f"run section must have exactly keys {sorted(_RUN_KEYS)}")
    for key in _RUN_KEYS:
        if not isinstance(runcfg[key], int) or runcfg[key] < 0:
            raise ConfigError(f"run.{key} must be a nonnegative integer")
    if not runcfg["budget"] > runcfg["burn_in"]:
        raise ConfigError("run.budget must exceed run.burn_in")
    pcfg = config["params"]
    if not isinstance(pcfg, dict) or set(pcfg) != {"alpha_up", "alpha_down"}:
        raise ConfigError("params section must have exactly alpha_up and alpha_down")
    try:
        problem = problem_from_json(config["problem"])
        params = EsParams(float(pcfg["alpha_up"]), float(pcfg["alpha_down"]))
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"invalid problem or params: {exc}") from exc
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
        return {
            "check_id": self.check_id,
            "status": self.status,
            "observed": self.observed,
            "bound": self.bound,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "note": self.note,
        }


def _stat_retry(check: Callable[[int, int], tuple], n: int):
    """Run a 3-standard-error check; on failure rerun once at 4x n on a fresh
    substream (attempt index 1) before reporting failure."""
    passed, observed, bound, note = check(n, 0)
    if passed:
        return passed, observed, bound, note
    passed, observed, bound, note = check(4 * n, 1)
    return passed, observed, bound, note + " (retried at 4x n)"


def verify_suite(config: dict) -> dict:
    """Run every verification check the configuration supports.

    Returns a machine-readable report; each check echoes its seed and
    tolerance.  Statistical checks that fail at 3 standard errors rerun once
    at 4x the sample count before being reported as failures.  Checks whose
    preconditions the configured problem cannot meet (dimension too small,
    infeasible theory constants) are reported as skips with the diagnosis,
    not as failures.

    The returned dict carries non-JSON artifacts (first trace, rate estimate)
    under the "_artifacts" key; strip it before serializing.
    """
    cfg = validate_config(config)
    problem: QuadraticProblem = cfg["problem"]
    params: EsParams = cfg["params"]
    seed: int = cfg["seed"]
    budget: int = cfg["run"]["budget"]
    burn_in: int = cfg["run"]["burn_in"]
    trials: int = cfg["run"]["trials"]
    n_mc: int = cfg["run"]["n_mc"]
    stats = spectrum_stats(problem)
    root = RandomStream(seed)
    checks: List[CheckResult] = []

    state0 = default_initial_state(problem)
    m0 = state0.m

    # -- invariance under monotone transforms and translation (bit-exact) ----
    # The canonical run, one run per transform and an integer-shifted run
    # draw from the same substream, so they must match bit for bit; they are
    # independent, so they run as one batch.
    inv_budget = min(1000, budget)
    shift = np.arange(1.0, problem.d + 1.0)
    starts = [(problem, state0)]
    starts += [(replace(problem, transform=tag), state0) for tag in (SQRT, LOG1P, CUBE)]
    starts.append((replace(problem, optimum=problem.optimum + shift),
                   EsState(np.asarray(m0) + shift, state0.log_sigma)))
    canonical, *transformed, shifted = run_many(
        [(p, s, params, inv_budget, substream(root, _LBL_INVARIANCE)) for p, s in starts],
        record_m=True,
    )

    def same_run(trace):
        return (np.array_equal(canonical.m_centered, trace.m_centered)
                and np.array_equal(canonical.log_sigma, trace.log_sigma))

    transform_ok = all(same_run(trace) for trace in transformed)
    checks.append(
        CheckResult(
            "invariance_transform",
            "pass" if transform_ok else "fail",
            observed=0.0 if transform_ok else math.inf,
            bound=0.0,
            tolerance="exact",
            seed=seed,
            note="sqrt/log1p/cube runs bit-identical to the identity run",
        )
    )

    trans_ok = same_run(shifted)
    checks.append(
        CheckResult(
            "invariance_translation",
            "pass" if trans_ok else "fail",
            observed=0.0 if trans_ok else math.inf,
            bound=0.0,
            tolerance="exact",
            seed=seed,
            note="integer-shifted run matches after centering",
        )
    )

    # -- monotonicity of log f ------------------------------------------------
    mono_worst = float(np.max(np.diff(canonical.log_f)))
    checks.append(
        CheckResult(
            "monotonicity",
            "pass" if mono_worst <= 0.0 else "fail",
            observed=mono_worst,
            bound=0.0,
            tolerance="exact",
            seed=seed,
        )
    )

    # -- sigma bookkeeping ------------------------------------------------------
    accepts = np.cumsum(canonical.accepted)
    expected = (
        state0.log_sigma
        + accepts * params.log_up
        + (canonical.t - accepts) * params.log_down
    )
    book_err = float(np.max(np.abs(expected - canonical.log_sigma)))
    checks.append(
        CheckResult(
            "sigma_bookkeeping",
            "pass" if book_err <= 1e-9 else "fail",
            observed=book_err,
            bound=1e-9,
            tolerance="1e-9 absolute",
            seed=seed,
        )
    )

    # -- success-probability sandwich ---------------------------------------------
    grad_norm = float(np.linalg.norm(problem.gradient_core(m0)))
    epsilon = 0.5

    def sandwich_check(n: int, attempt: int):
        worst_gap = -math.inf
        notes = []
        base = substream(root, _LBL_SANDWICH + attempt)
        for k, sigma_norm in enumerate((0.25, 0.5, 1.0, 2.0, 4.0)):
            sigma = sigma_norm * grad_norm / stats.trace
            est = estimate_success_prob(problem, m0, sigma, n, substream(base, k))
            lower, upper = bounds_mod.success_prob_sandwich(stats, sigma_norm, epsilon)
            gap = max(
                lower - 3 * est.std_error - est.mean,
                est.mean - upper - 3 * est.std_error,
            )
            worst_gap = max(worst_gap, gap)
            notes.append(f"s={sigma_norm}: {est.mean:.4f} in [{lower:.4f},{upper:.4f}]")
        return worst_gap <= 0.0, worst_gap, 0.0, "; ".join(notes)

    passed, observed, bound, note = _stat_retry(sandwich_check, n_mc)
    checks.append(
        CheckResult(
            "success_sandwich",
            "pass" if passed else "fail",
            observed=observed,
            bound=bound,
            tolerance="3 SE, epsilon=0.5",
            seed=seed,
            note=note,
        )
    )

    # -- quality-gain bound ----------------------------------------------------------
    def quality_check(n: int, attempt: int):
        worst_gap = -math.inf
        base = substream(root, _LBL_QUALITY + attempt)
        for k in range(8):
            direction = normal_vector(substream(base, 2 * k), problem.d)
            point = problem.optimum + direction / max(
                float(np.linalg.norm(direction)), 1e-12
            )
            gnorm = float(np.linalg.norm(problem.gradient_core(point)))
            fval = problem.core(point)
            sigma = gnorm / stats.trace * math.exp(2.0 * (k / 7.0 - 0.5))
            lhs = estimate_log_progress(
                problem, point, sigma, n, substream(base, 2 * k + 1)
            )
            psucc = estimate_success_prob(
                problem, point, sigma, n, substream(base, 100 + k)
            )
            rhs_coeff = bounds_mod.quality_gain_bound(stats, gnorm, fval, sigma, 1.0)
            rhs = rhs_coeff * psucc.mean
            se = math.hypot(lhs.std_error, rhs_coeff * psucc.std_error)
            worst_gap = max(worst_gap, lhs.mean - rhs - 3 * se)
        return worst_gap <= 0.0, worst_gap, 0.0, "8 random (m, sigma) instances"

    passed, observed, bound, note = _stat_retry(quality_check, n_mc)
    checks.append(
        CheckResult(
            "quality_gain",
            "pass" if passed else "fail",
            observed=observed,
            bound=bound,
            tolerance="3 SE (combined)",
            seed=seed,
            note=note,
        )
    )

    # -- exponential moment bound -------------------------------------------------------
    if stats.d <= 3:
        checks.append(
            CheckResult(
                "exp_moment", "skip", seed=seed,
                note=f"requires d > 3, got d={stats.d}",
            )
        )
    else:
        bound_val = bounds_mod.exp_moment_bound(stats, stats.d)

        def exp_moment_check(n: int, attempt: int):
            worst_gap = -math.inf
            base = substream(root, _LBL_EXP_MOMENT + attempt)
            for k in range(4):
                direction = normal_vector(substream(base, 2 * k), problem.d)
                point = problem.optimum + direction / max(
                    float(np.linalg.norm(direction)), 1e-12
                )
                gnorm = float(np.linalg.norm(problem.gradient_core(point)))
                sigma = gnorm / stats.trace * math.exp(k - 1.5)
                est = estimate_exp_abs(
                    problem, point, sigma, max(n, 1000), substream(base, 2 * k + 1)
                )
                worst_gap = max(worst_gap, est.mean - bound_val - 3 * est.std_error)
            return worst_gap <= 0.0, worst_gap, bound_val, "4 random sigmas"

        passed, observed, bound, note = _stat_retry(exp_moment_check, n_mc)
        checks.append(
            CheckResult(
                "exp_moment",
                "pass" if passed else "fail",
                observed=observed,
                bound=bound,
                tolerance="3 SE",
                seed=seed,
                note=note,
            )
        )

    # -- theory constants and per-regime drift ---------------------------------------------
    consts: Optional[TheoryConstants] = None
    try:
        consts = theory_constants(stats, params)
        checks.append(
            CheckResult(
                "theory_constants",
                "pass",
                observed=consts.drift_bound,
                bound=0.0,
                tolerance="drift_bound > 0",
                seed=seed,
                note=(
                    f"q_low={consts.q_low:.4f} q_high={consts.q_high:.4f} "
                    f"band_gain={consts.band_gain:.3e}"
                ),
            )
        )
    except InfeasibleBound as exc:
        checks.append(
            CheckResult("theory_constants", "skip", seed=seed, note=f"infeasible: {exc}")
        )

    if consts is None:
        for regime in RegimeLabel:
            checks.append(
                CheckResult(
                    f"drift_{regime.value}",
                    "skip",
                    seed=seed,
                    note="theory constants infeasible for this problem/params",
                )
            )
    else:
        cap = potential_step_cap(consts, params)
        regime_states = _regime_states(problem, stats, consts, m0)
        for regime, state in regime_states.items():
            target = drift_target(regime, consts, params)

            def drift_check(n: int, attempt: int, state=state, target=target,
                            label=_LBL_DRIFT[regime]):
                est, samples = estimate_drift_V(
                    problem, state, consts, params, max(n, 1000),
                    substream(root, label + 10 * attempt), with_samples=True,
                )
                pathwise_ok = bool(np.all(samples <= cap))
                gap = est.mean - target - 3 * est.std_error
                note = (
                    f"mean={est.mean:.3e} target={target:.3e} "
                    f"pathwise max={float(np.max(samples)):.3e} cap={cap:.3e}"
                )
                return gap <= 0.0 and pathwise_ok, gap, target, note

            passed, observed, bound, note = _stat_retry(drift_check, n_mc)
            checks.append(
                CheckResult(
                    f"drift_{regime.value}",
                    "pass" if passed else "fail",
                    observed=observed,
                    bound=bound,
                    tolerance="3 SE + exact pathwise cap",
                    seed=seed,
                    note=note,
                )
            )

    # -- rate bracket ---------------------------------------------------------------------
    rate_est, first_trace = measure_rate(
        problem, params, state0, budget, burn_in, trials,
        substream(root, _LBL_RATE), keep_first_trace=True,
    )
    se = rate_est.std_error if math.isfinite(rate_est.std_error) else 0.0
    if stats.d > 3:
        upper_cap = stats.cond / (2.0 * (stats.d - 3))
        checks.append(
            CheckResult(
                "rate_upper_cap",
                "pass" if rate_est.a_hat <= upper_cap + 3.0 * se else "fail",
                observed=rate_est.a_hat,
                bound=upper_cap,
                tolerance="3 trial SE",
                seed=seed,
            )
        )
    else:
        checks.append(
            CheckResult("rate_upper_cap", "skip", seed=seed, note="requires d > 3")
        )
    if consts is not None:
        checks.append(
            CheckResult(
                "rate_lower_bound",
                "pass" if consts.drift_bound / 2.0 - 3.0 * se <= rate_est.a_hat
                else "fail",
                observed=rate_est.a_hat,
                bound=consts.drift_bound / 2.0,
                tolerance="3 trial SE",
                seed=seed,
            )
        )
    else:
        checks.append(
            CheckResult(
                "rate_lower_bound",
                "skip",
                seed=seed,
                note="theory constants infeasible for this problem/params",
            )
        )

    # -- limit values of the bound functions -------------------------------------------------
    tiny = SpectrumStats(
        d=10**12, L=1.0, U=1.0, trace=1e12, trace_sq=1e12, cond=1.0, ratio=1e-12
    )
    bh = bounds_mod.b_high(tiny, 0.2)
    bl = bounds_mod.b_low(tiny, 0.3)
    bh_target = 2.0 * bounds_mod.normal_quantile(0.8)
    bl_target = 2.0 * bounds_mod.normal_quantile(0.7)
    lim_err = max(abs(bh - bh_target), abs(bl - bl_target))
    checks.append(
        CheckResult(
            "bound_limits",
            "pass" if lim_err <= 1e-3 else "fail",
            observed=lim_err,
            bound=1e-3,
            tolerance="1e-3 absolute",
            seed=seed,
            note=(
                f"b_high(0.2)={bh:.6f} vs {bh_target:.6f}; "
                f"b_low(0.3)={bl:.6f} vs {bl_target:.6f}"
            ),
        )
    )

    n_pass = sum(1 for c in checks if c.status == "pass")
    n_fail = sum(1 for c in checks if c.status == "fail")
    n_skip = sum(1 for c in checks if c.status == "skip")
    report = {
        "version": VERSION,
        "generator_id": GENERATOR_ID,
        "seed": seed,
        "config_echo": {
            "problem": problem.to_json(),
            "params": params.to_json(),
            "run": cfg["run"],
        },
        "checks": [c.to_json() for c in checks],
        "n_pass": n_pass,
        "n_fail": n_fail,
        "n_skip": n_skip,
        "ok": n_fail == 0,
        "_artifacts": {"first_trace": first_trace, "rate": rate_est},
    }
    return report


def _regime_states(problem, stats, consts, m0):
    """One state per regime: far below the band, inside it (geometric mean of
    the edges), and far above it."""
    y = np.asarray(m0, dtype=float) - problem.optimum
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
