"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical checks use the 3-standard-error rule; a check that fails at 3 SE
is rerun once at 4x the sample count on a fresh substream before it may fail
the test (guards against the ~0.3% per-check false-alarm rate without masking
real violations).  The retry is ``esquad.experiments.stat_retry``, the one
``esquad verify`` uses, and the drift criteria decide each state through its
``drift_check``.

Criterion 6 as first stated asked for the per-regime drift on sphere d=256
with a success target of 0.2.  That premise is unsatisfiable: no theory
constants exist at a 0.2 target for any Hessian at any dimension, because
b_low(q) >= 2 QuantilePhi(1 - q) and the feasibility condition
b_low(q_low) < 4/sqrt(2 pi) then forces q_low > Phi(-sqrt(2/pi)) ~ 0.2125
(the limit of vanishing trace ratio) > 0.2.  The amended criterion asserts
that infeasibility, then checks the drift per regime at the smallest feasible
target on a 0.01 grid above 0.2.  Criterion 6v runs the same drift check at
the round target 0.4.
"""

import filecmp
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

import esquad as eq
from esquad import bounds, montecarlo, potential
from esquad.bounds import FOUR_OVER_SQRT_2PI
from esquad.experiments import _regime_states, drift_check, stat_retry

REPO_ROOT = Path(__file__).resolve().parent.parent

TRACES = []  # (label, RunTrace) pairs accumulated across criteria


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# Criterion 1: invariance under monotone transforms and translations
# ---------------------------------------------------------------------------


def test_criterion_01_invariance():
    budget = 1000
    problems = {
        "sphere_d8": eq.sphere(8),
        "ellipsoid_d8_xi10": eq.ellipsoid(8, 10),
    }
    # m0 entries on a coarse binary grid and integer shifts keep
    # m0 + shift - shift exact in floating point
    m0 = np.arange(1.0, 9.0) / 4.0
    shift = np.arange(3.0, 11.0)
    params = eq.alpha_schedule(8, 0.2)
    checked = 0
    for label, lam in problems.items():
        for seed in range(5):
            canonical_problem = eq.make_problem(lam, 0)
            state0 = eq.EsState(m0, math.log(0.25))
            canonical = eq.run(
                canonical_problem, state0, params, budget,
                eq.RandomStream(seed), record_m=True,
            )
            TRACES.append((f"c1-{label}-{seed}", canonical))
            for transform in (eq.SQRT, eq.LOG1P, eq.CUBE):
                for translated in (False, True):
                    opt = shift if translated else 0
                    problem = eq.make_problem(lam, opt, transform=transform)
                    start = eq.EsState(m0 + shift if translated else m0,
                                       math.log(0.25))
                    variant = eq.run(
                        problem, start, params, budget,
                        eq.RandomStream(seed), record_m=True,
                    )
                    assert np.array_equal(canonical.m_centered, variant.m_centered)
                    assert np.array_equal(canonical.log_sigma, variant.log_sigma)
                    assert np.array_equal(canonical.log_f, variant.log_f)
                    checked += 1
    report("01 invariance", True,
           f"{checked} transform/translation variants bit-identical over "
           f"{budget} steps (2 problems x 5 seeds)")


# ---------------------------------------------------------------------------
# Criterion 2: monotonicity of f(m_t) on every generated trace
# ---------------------------------------------------------------------------


def test_criterion_02_monotonicity():
    extra = [
        ("rotated", eq.make_problem(eq.ellipsoid(8, 10), 0, rotation_seed=5)),
        ("cigar", eq.make_problem(eq.cigar(16, 100), 0)),
        ("transformed", eq.make_problem(eq.sphere(12), 0, transform=eq.LOG1P)),
    ]
    for label, problem in extra:
        state0 = eq.default_initial_state(problem)
        TRACES.append(
            (label, eq.run(problem, state0, eq.alpha_schedule(problem.d),
                           3000, eq.RandomStream(99)))
        )
    big_sigma = eq.make_problem(eq.sphere(16), 0)
    s0 = eq.default_initial_state(big_sigma)
    TRACES.append(
        ("mis-scaled", eq.run(big_sigma,
                              eq.EsState(s0.m, s0.log_sigma + math.log(1e6)),
                              eq.alpha_schedule(16), 3000, eq.RandomStream(98)))
    )
    worst = -math.inf
    for label, trace in TRACES:
        worst = max(worst, float(np.max(np.diff(trace.log_f))))
        assert np.all(np.diff(trace.log_f) <= 0.0), label
    report("02 monotonicity", True,
           f"{len(TRACES)} traces nonincreasing; max one-step change {worst:.3g}")


# ---------------------------------------------------------------------------
# Criterion 3: success-probability sandwich at n = 1e6, antithetic
# ---------------------------------------------------------------------------


def test_criterion_03_success_sandwich():
    epsilon = 0.5
    failures = []
    for label, lam in (
        ("sphere_d100", eq.sphere(100)),
        ("ellipsoid_d100_xi5", eq.ellipsoid(100, 5)),
    ):
        problem = eq.make_problem(lam, 0)
        stats = eq.spectrum_stats(problem)
        m = problem.optimum + np.ones(100) / 10.0
        grad_norm = problem.grad_norm_centered(problem.centered(m))
        for k, sigma_norm in enumerate((0.25, 0.5, 1.0, 2.0, 4.0)):
            sigma = sigma_norm * grad_norm / stats.trace
            lower, upper = bounds.success_prob_sandwich(stats, sigma_norm, epsilon)

            def check(n, attempt, sigma=sigma, lower=lower, upper=upper, k=k):
                est = montecarlo.estimate_success_prob(
                    problem, m, sigma, n,
                    eq.RandomStream(300 + k, (attempt,)),
                )
                ok = (lower - 3 * est.std_error <= est.mean
                      <= upper + 3 * est.std_error)
                return ok, f"{est.mean:.4f} in [{lower:.4f}, {upper:.4f}]"

            ok, detail = stat_retry(check, 1_000_000)
            if not ok:
                failures.append(f"{label} s={sigma_norm}: {detail}")
    report("03 success sandwich", not failures,
           "10 (problem, sigma_norm) settings at n=1e6, eps=0.5"
           + ("; " + "; ".join(failures) if failures else ""))
    assert not failures


# ---------------------------------------------------------------------------
# Criterion 4: quality-gain bound on 20 random instances
# ---------------------------------------------------------------------------


def test_criterion_04_quality_gain():
    rng = np.random.default_rng(2024)
    failures = []
    for trial in range(20):
        d = 8 if trial < 10 else 64
        lam = np.exp(rng.uniform(0, math.log(10), size=d))
        lam[-1] = 1.0
        problem = eq.make_problem(lam, rng.normal(size=d))
        stats = eq.spectrum_stats(problem)
        m = problem.optimum + rng.normal(size=d)
        grad_norm = problem.grad_norm_centered(problem.centered(m))
        f_val = problem.core(m)
        sigma = float(grad_norm / stats.trace * math.exp(rng.uniform(-2, 2)))
        coeff = bounds.quality_gain_bound(stats, grad_norm, f_val, sigma)

        def check(n, attempt, problem=problem, m=m, sigma=sigma, coeff=coeff,
                  trial=trial):
            lhs = montecarlo.estimate_log_progress(
                problem, m, sigma, n, eq.RandomStream(400 + trial, (attempt,))
            )
            psucc = montecarlo.estimate_success_prob(
                problem, m, sigma, n, eq.RandomStream(440 + trial, (attempt,))
            )
            rhs = coeff * psucc.mean
            se = math.hypot(lhs.std_error, coeff * psucc.std_error)
            return lhs.mean <= rhs + 3 * se, (
                f"lhs={lhs.mean:.5g} rhs={rhs:.5g} 3se={3 * se:.2g}"
            )

        ok, detail = stat_retry(check, 100_000)
        if not ok:
            failures.append(f"instance {trial}: {detail}")
    report("04 quality gain", not failures,
           "20 random (problem, m, sigma), d in {8, 64}, n=1e5"
           + ("; " + "; ".join(failures) if failures else ""))
    assert not failures


# ---------------------------------------------------------------------------
# Criterion 5: exponential moment bound
# ---------------------------------------------------------------------------


def test_criterion_05_exp_moment():
    rng = np.random.default_rng(77)
    failures = []
    for d in (8, 32):
        for cond in (1.0, 10.0):
            lam = eq.sphere(d) if cond == 1.0 else eq.ellipsoid(d, cond)
            problem = eq.make_problem(lam, 0)
            stats = eq.spectrum_stats(problem)
            bound = bounds.exp_moment_bound(stats)
            m = problem.optimum + rng.normal(size=d)
            grad_norm = problem.grad_norm_centered(problem.centered(m))
            sigma = grad_norm / stats.trace

            def check(n, attempt, problem=problem, m=m, sigma=sigma,
                      bound=bound, d=d, cond=cond):
                est = montecarlo.estimate_exp_abs(
                    problem, m, sigma, n,
                    eq.RandomStream(500 + d + int(cond), (attempt,)),
                )
                return est.mean <= bound + 3 * est.std_error, (
                    f"mean={est.mean:.4f} bound={bound:.4f}"
                )

            ok, detail = stat_retry(check, 100_000)
            if not ok:
                failures.append(f"d={d} cond={cond}: {detail}")
    report("05 exp moment", not failures,
           "d in {8, 32} x cond in {1, 10}, n=1e5"
           + ("; " + "; ".join(failures) if failures else ""))
    assert not failures


# ---------------------------------------------------------------------------
# Criterion 6: drift per regime (p_target = 0.2 proven infeasible)
# ---------------------------------------------------------------------------


def _drift_checks(problem, params, constants, n, label):
    """5 states per regime: MC drift <= target + 3 SE and exact pathwise cap."""
    rng = np.random.default_rng(606)
    failures = []
    for regime in potential.RegimeLabel:
        for j in range(5):
            direction = rng.normal(size=problem.d)
            m = problem.optimum + direction / np.linalg.norm(direction) * (
                math.exp(rng.uniform(-2, 2))
            )
            edges = _regime_states(problem, constants, m)
            base = edges[regime].log_sigma
            tweak = {
                potential.RegimeLabel.SMALL_STEP: -3.0 * j,
                potential.RegimeLabel.LARGE_STEP: +3.0 * j,
                potential.RegimeLabel.REASONABLE: 0.15 * (j - 2),
            }[regime]
            state = eq.EsState(m, base + tweak)
            assert potential.classify(state, problem, constants) is regime

            def check(nn, attempt, state=state, regime=regime, j=j):
                res = drift_check(problem, state, regime, constants, params, nn,
                                  eq.RandomStream(600 + 10 * j, (attempt,)))
                return res.passed, (
                    f"{regime.value}[{j}] mean={res.estimate.mean:.3e} "
                    f"target={res.target:.3e} max={res.pathwise_max:.3e} cap={res.cap:.3e}"
                )

            ok, detail = stat_retry(check, n)
            if not ok:
                failures.append(detail)
    return failures


def test_criterion_06_drift_per_regime_as_specified():
    """Criterion 6, amended: premise proven false, drift at the nearest target.

    Sphere d=256 with the alpha_schedule(256, p_target) multipliers.

    1. The trace condition holds (1/256 < 0.01446), but b_low(0.2) >=
       2 QuantilePhi(0.8) = 1.6832 > 4/sqrt(2 pi) = 1.5958, so the p_target
       condition fails and eq.constants must raise at p_target = 0.2.  Should
       constants ever appear there, the bounds are wrong and this test fails.
    2. Scanning p_target = 0.20, 0.21, ... on the same sphere, the first
       target with theory constants must lie strictly between the floor
       Phi(-sqrt(2/pi)) and 0.4 (criterion 6v's target).  At that target,
       5 states per regime must satisfy MC drift <= target + 3 SE (one retry
       at 4n) and the exact pathwise cap.
    """
    problem = eq.make_problem(eq.sphere(256), 0)
    stats = eq.spectrum_stats(problem)
    assert bounds.trace_condition(stats)[0]
    assert bounds.b_low(stats, 0.2) >= 2.0 * bounds.normal_quantile(0.8) > FOUR_OVER_SQRT_2PI
    with pytest.raises(eq.InfeasibleBound, match="p_target condition"):
        eq.constants(stats, eq.alpha_schedule(256, 0.2))

    floor = ndtr(-math.sqrt(2.0 / math.pi))
    infeasible = []
    for k in range(20, 40):
        p_target = k / 100
        params = eq.alpha_schedule(256, p_target)
        try:
            constants = eq.constants(stats, params)
            break
        except eq.InfeasibleBound:
            infeasible.append(p_target)
    else:
        pytest.fail("no feasible p_target in 0.20..0.39 on sphere d=256")
    assert floor < p_target < 0.4

    failures = _drift_checks(problem, params, constants, 100_000, "crit6")
    report(f"06 drift per regime (0.2 infeasible; first feasible {p_target:.2f})",
           not failures,
           f"p_target {infeasible[0]:.2f}-{infeasible[-1]:.2f} infeasible; "
           f"at {p_target:.2f}: q_low={constants.q_low:.4f} "
           f"q_high={constants.q_high:.4f}, 15 states, n=1e5"
           + ("; " + "; ".join(failures) if failures else ""))
    assert not failures


def test_criterion_06v_drift_per_regime_feasible_target(
    sphere256, params256, constants256
):
    failures = _drift_checks(sphere256, params256, constants256, 100_000, "crit6v")
    report("06v drift per regime (feasible target 0.4)", not failures,
           "15 states (5 per regime), n=1e5, pathwise cap exact"
           + ("; " + "; ".join(failures) if failures else ""))
    assert not failures


# ---------------------------------------------------------------------------
# Criteria 7-9: rate measurements (shared across the three criteria)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def rates():
    cache = {}

    def get(kind, d, xi=None):
        key = (kind, d, xi)
        if key not in cache:
            lam = {
                "sphere": lambda: eq.sphere(d),
                "discus": lambda: eq.discus(d, xi),
                "cigar": lambda: eq.cigar(d, xi),
            }[kind]()
            problem = eq.make_problem(lam, 0)
            est, _ = eq.measure_rate(
                problem,
                eq.alpha_schedule(d, 0.2),
                eq.default_initial_state(problem),
                20000,
                2000,
                20,
                eq.RandomStream(700 + d + (0 if xi is None else int(xi))),
            )
            cache[key] = (problem, est)
        return cache[key]

    return get


def test_criterion_07_theorem_bracket(rates):
    settings = [("sphere", 8, None), ("sphere", 16, None), ("sphere", 32, None),
                ("discus", 64, 10)]
    lines = []
    failures = []
    for kind, d, xi in settings:
        problem, est = rates(kind, d, xi)
        stats = eq.spectrum_stats(problem)
        cap = stats.cond / (2.0 * (d - 3))
        upper_ok = est.a_hat <= cap + 3 * est.std_error
        if not upper_ok:
            failures.append(f"{kind} d={d}: a_hat={est.a_hat:.4g} > cap={cap:.4g}")
        try:
            consts = eq.constants(stats, eq.alpha_schedule(d, 0.2))
            lower_ok = consts.drift_bound / 2 - 3 * est.std_error <= est.a_hat
            if not lower_ok:
                failures.append(f"{kind} d={d}: a_hat below B/2")
            lines.append(f"{kind} d={d}: bracket checked both sides")
        except eq.InfeasibleBound:
            lines.append(
                f"{kind} d={d}: a_hat={est.a_hat:.4g} <= cap={cap:.4g}; "
                "constants infeasible (trace condition), B/2 side n/a"
            )
    report("07 theorem bracket", not failures, " | ".join(lines))
    assert not failures


def test_criterion_07s_lower_bound_where_feasible(
    sphere256, params256, constants256
):
    # Supplementary: the B/2 side of the bracket on a problem where the
    # constants exist (sphere d=256, target 0.4).
    est, _ = eq.measure_rate(
        sphere256, params256, eq.default_initial_state(sphere256),
        20000, 2000, 20, eq.RandomStream(711),
    )
    cap = constants256.rate_cap
    lower = constants256.drift_bound / 2.0
    ok = lower - 3 * est.std_error <= est.a_hat <= cap + 3 * est.std_error
    report("07s bracket with feasible constants (sphere d=256)", ok,
           f"B/2={lower:.3e} <= a_hat={est.a_hat:.4g} <= cap={cap:.4g}")
    assert ok


def test_criterion_08_dimension_scaling(rates):
    scaled = {}
    for d in (8, 16, 32, 64):
        _, est = rates("sphere", d, None)
        scaled[d] = est.a_hat * d
    spread = max(scaled.values()) / min(scaled.values())
    ok = spread <= 2.0
    report("08 d-scaling", ok,
           "a_hat*d = " + ", ".join(f"{d}: {v:.4f}" for d, v in scaled.items())
           + f"; max/min = {spread:.3f} <= 2")
    assert ok


def test_criterion_09_cigar_discus_ordering(rates):
    _, cigar_est = rates("cigar", 64, 100)
    _, discus_est = rates("discus", 64, 100)
    _, sphere_est = rates("sphere", 64, None)
    ordering_ok = cigar_est.a_hat < discus_est.a_hat
    ratio = discus_est.a_hat / sphere_est.a_hat
    ratio_ok = 0.2 <= ratio <= 2.0
    report("09 cigar vs discus", ordering_ok and ratio_ok,
           f"a(cigar)={cigar_est.a_hat:.4g} < a(discus)={discus_est.a_hat:.4g}; "
           f"a(discus)/a(sphere)={ratio:.3f} in [0.2, 2]")
    assert ordering_ok and ratio_ok


# ---------------------------------------------------------------------------
# Criterion 10: limit values of the threshold functions
# ---------------------------------------------------------------------------


def test_criterion_10_bound_function_limits():
    tiny = eq.SpectrumStats(
        d=10**12, L=1.0, U=1.0, trace=1e12, trace_sq=1e12, cond=1.0, ratio=1e-12
    )
    bh = bounds.b_high(tiny, 0.2)
    bl = bounds.b_low(tiny, 0.3)

    def quantile_oracle(p):
        # bisection on the Maclaurin erf series, independent of the library path
        def cdf(x):
            t, total = x / math.sqrt(2), 0.0
            term = t
            for nn in range(120):
                total += term / (2 * nn + 1)
                term *= -t * t / (nn + 1)
                if abs(term) < 1e-18:
                    break
            return 0.5 * (1 + 2 / math.sqrt(math.pi) * total)

        lo, hi = -3.0, 3.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if cdf(mid) < p:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    t_high = 2 * quantile_oracle(0.8)
    t_low = 2 * quantile_oracle(0.7)
    assert t_high == pytest.approx(1.68324, abs=1e-5)
    assert t_low == pytest.approx(1.04880, abs=1e-5)
    ok = abs(bh - t_high) <= 1e-3 and abs(bl - t_low) <= 1e-3
    report("10 bound limits", ok,
           f"b_high(0.2)={bh:.6f} vs {t_high:.6f}; b_low(0.3)={bl:.6f} vs "
           f"{t_low:.6f} (tol 1e-3, oracle quantiles by series bisection)")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 11: byte-identical reruns of the verification CLI
# ---------------------------------------------------------------------------


def test_criterion_11_verify_reproducibility(tmp_path):
    config = REPO_ROOT / "configs" / "default.json"
    outs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "esquad.cli", "verify",
             "--config", str(config), "--out", str(out_dir)],
            capture_output=True, text=True, cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(out_dir)
    files = sorted(p.name for p in outs[0].iterdir())
    assert "report.json" in files
    csvs = [f for f in files if f.endswith(".csv")]
    assert csvs
    identical = all(
        filecmp.cmp(outs[0] / f, outs[1] / f, shallow=False) for f in files
    )
    report_doc = json.loads((outs[0] / "report.json").read_text())
    ok = identical and report_doc["ok"]
    report("11 reproducibility", ok,
           f"two runs byte-identical across {files}; "
           f"checks: {report_doc['n_pass']} pass / {report_doc['n_fail']} fail "
           f"/ {report_doc['n_skip']} skip")
    assert identical
    assert report_doc["ok"]
