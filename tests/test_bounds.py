import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

import esquad as eq
from esquad import bounds, montecarlo
from esquad.bounds import FOUR_OVER_SQRT_2PI, _q_low_edge, rate_cap
from conftest import random_problem, run_python

REPO_ROOT = Path(__file__).resolve().parent.parent


# --- independent oracle: Maclaurin erf series + bisection quantile -----------

def erf_series(x: float) -> float:
    """erf via its Maclaurin series; independent of scipy. Good to ~1e-14
    for |x| <= 3."""
    term = x
    total = 0.0
    for n in range(0, 120):
        total += term / (2 * n + 1)
        term *= -x * x / (n + 1)
        if abs(term) < 1e-18:
            break
    return 2.0 / math.sqrt(math.pi) * total


def cdf_oracle(x: float) -> float:
    return 0.5 * (1.0 + erf_series(x / math.sqrt(2.0)))


def quantile_oracle(p: float) -> float:
    lo, hi = -3.0, 3.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if cdf_oracle(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def stats_with_ratio(r: float) -> eq.SpectrumStats:
    """Synthetic sphere-like statistics with a prescribed ratio (formal r)."""
    d = max(int(round(1.0 / r)) if r > 0 else 10**12, 4)
    return eq.SpectrumStats(
        d=d, L=1.0, U=1.0, trace=float(d), trace_sq=float(d), cond=1.0,
        ratio=r,
    )


class TestNormalCdfQuantile:
    def test_cdf_at_zero(self):
        assert ndtr(0.0) == 0.5

    def test_cdf_classic_value(self):
        assert ndtr(-math.sqrt(2.0 / math.pi)) == pytest.approx(
            0.2123, abs=5e-4
        )

    def test_quantile_08(self):
        assert bounds.normal_quantile(0.8) == pytest.approx(0.841621, abs=1e-5)
        assert bounds.normal_quantile(0.8) == pytest.approx(
            quantile_oracle(0.8), abs=1e-9
        )

    def test_cdf_matches_series_oracle(self):
        for x in np.linspace(-3, 3, 61):
            assert ndtr(float(x)) == pytest.approx(
                cdf_oracle(float(x)), rel=1e-12, abs=1e-15
            )

    def test_round_trip(self):
        # Above x ~ 5.6 the CDF value sits within half an ulp of 1.0, which
        # by itself perturbs the recovered x by (ulp/2)/pdf(x); no pair of
        # double-valued functions can beat that, so the tolerance includes it.
        ulp_half = 2.0**-53
        for x in np.linspace(-8, 8, 101):
            x = float(x)
            pdf = math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
            info_limit = ulp_half / pdf if x > 0 else 0.0
            assert bounds.normal_quantile(ndtr(x)) == pytest.approx(
                x, abs=1e-9 + info_limit
            )
        # the stated 1e-9 holds everywhere the inverse is informationally exact
        for x in np.linspace(-8, 5.5, 64):
            assert bounds.normal_quantile(ndtr(float(x))) == pytest.approx(
                float(x), abs=1e-9
            )

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(eq.DomainError):
                bounds.normal_quantile(bad)

    def test_vectorized(self):
        xs = np.array([-1.0, 0.0, 1.0])
        assert ndtr(xs).shape == (3,)
        assert np.allclose(bounds.normal_quantile(ndtr(xs)), xs)


class TestTraceCondition:
    def test_threshold_value(self):
        thr = bounds.trace_condition_threshold()
        assert thr == pytest.approx(0.014459, abs=5e-6)
        # second term is the smaller one
        t1 = cdf_oracle(1.0 / math.sqrt(2 * math.pi)) - 0.5
        t2 = 1.0 - cdf_oracle(3.0 / math.sqrt(2 * math.pi))
        assert t2 < t1
        assert thr == pytest.approx(t2 / 8.0, rel=1e-10)

    def test_sphere_d100_passes(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(100), 0))
        ok, margin = bounds.trace_condition(stats)
        assert ok and margin > 0

    def test_sphere_d10_fails(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(10), 0))
        ok, margin = bounds.trace_condition(stats)
        assert not ok and margin < 0


class TestSandwich:
    def test_collapses_when_ratio_zero(self):
        stats = stats_with_ratio(0.0)
        for s in (0.3, 1.0, 2.5):
            lower, upper = bounds.success_prob_sandwich(stats, s, 1e-9)
            assert lower == pytest.approx(ndtr(-s / 2), abs=1e-9)
            assert upper == pytest.approx(ndtr(-s / 2), abs=1e-9)

    def test_sphere_d100_formula(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(100), 0))
        lower, upper = bounds.success_prob_sandwich(stats, 1.0, 0.5)
        assert lower == pytest.approx(ndtr(-0.75) - 0.08)
        assert upper == pytest.approx(ndtr(-0.25) + 0.08)
        assert lower <= upper

    def test_monte_carlo_inside_sandwich(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            d = int(rng.integers(30, 120))
            p = random_problem(rng, d, cond=float(rng.uniform(1, 4)))
            stats = eq.spectrum_stats(p)
            m = p.optimum + rng.normal(size=d)
            grad_norm = p.grad_norm_centered(p.centered(m))
            s = float(rng.uniform(0.2, 3.0))
            sigma = s * grad_norm / stats.trace
            est = montecarlo.estimate_success_prob(
                p, m, sigma, 20000, eq.RandomStream(1000 + trial)
            )
            lower, upper = bounds.success_prob_sandwich(stats, s, 0.5)
            assert lower - 3 * est.std_error <= est.mean
            assert est.mean <= upper + 3 * est.std_error


class TestBHigh:
    def test_limit_matches_two_quantile(self):
        stats = stats_with_ratio(1e-12)
        assert bounds.b_high(stats, 0.2) == pytest.approx(
            2 * bounds.normal_quantile(0.8), abs=1e-3
        )

    def test_strictly_decreasing(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(1000), 0))
        values = [bounds.b_high(stats, q) for q in (0.1, 0.2, 0.3, 0.4)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_capped_by_two_quantile(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            stats = stats_with_ratio(float(rng.uniform(1e-6, 0.014)))
            q = float(rng.uniform(0.02, 0.48))
            assert bounds.b_high(stats, q) <= 2 * bounds.normal_quantile(1 - q) + 1e-12

    def test_domain(self):
        stats = stats_with_ratio(1e-4)
        for bad in (0.0, 0.5, 0.7):
            with pytest.raises(eq.DomainError):
                bounds.b_high(stats, bad)

    def test_epsilon_recorded(self):
        stats = stats_with_ratio(1e-4)
        value, epsilon = bounds.b_high(stats, 0.3, with_epsilon=True)
        assert value > 0
        assert epsilon > math.sqrt(4 * 1e-4 / (1 - 0.6))


class TestBLow:
    def test_limit_matches_two_quantile(self):
        stats = stats_with_ratio(1e-12)
        assert bounds.b_low(stats, 0.3) == pytest.approx(
            2 * bounds.normal_quantile(0.7), abs=1e-3
        )

    def test_floored_by_two_quantile(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            r = float(rng.uniform(1e-6, 0.014))
            stats = stats_with_ratio(r)
            q = float(rng.uniform(2 * r + 0.01, 0.49))
            assert bounds.b_low(stats, q) >= 2 * bounds.normal_quantile(1 - q) - 1e-12

    def test_strictly_decreasing(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(1000), 0))
        values = [bounds.b_low(stats, q) for q in (0.1, 0.2, 0.3, 0.4)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain_and_feasibility(self):
        stats = stats_with_ratio(0.01)
        with pytest.raises(eq.DomainError):
            bounds.b_low(stats, 0.015)  # q <= 2 r
        with pytest.raises(eq.InfeasibleBound):
            bounds.b_low(stats_with_ratio(0.3), 0.45)  # ratio >= 1/4

    def test_floor_holds_just_above_two_ratio(self):
        # the eps interval (sqrt(2 ratio / q), 1) is narrower than the grid's
        # 1e-12 inset here; a grid running past eps = 1 gave -7e16 at d=256
        for d in (256, 1024):
            stats = eq.spectrum_stats(eq.make_problem(eq.sphere(d), 0))
            q = 2 * stats.ratio + 1e-15
            assert bounds.b_low(stats, q) >= 2 * bounds.normal_quantile(1 - q)
            # an ulp above 2 ratio the interval holds no grid: inf over nothing
            q = float(np.nextafter(2 * stats.ratio, 1.0))
            assert bounds.b_low(stats, q) == math.inf

    def test_b_low_dominates_b_high(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(500), 0))
        for q in (0.05, 0.15, 0.25, 0.35, 0.45):
            assert bounds.b_low(stats, q) >= bounds.b_high(stats, q)

    def test_large_sigma_norm_implies_low_success(self):
        # states with sigma_norm >= b_low(q) have MC success prob < q + 3 SE
        rng = np.random.default_rng(4)
        for trial in range(10):
            d = int(rng.integers(50, 150))
            p = random_problem(rng, d, cond=float(rng.uniform(1, 3)))
            stats = eq.spectrum_stats(p)
            q = float(rng.uniform(max(0.1, 2.5 * stats.ratio), 0.45))
            threshold = bounds.b_low(stats, q)
            m = p.optimum + rng.normal(size=d)
            grad_norm = p.grad_norm_centered(p.centered(m))
            sigma = (threshold * 1.0001) * grad_norm / stats.trace
            est = montecarlo.estimate_success_prob(
                p, m, sigma, 20000, eq.RandomStream(2000 + trial)
            )
            assert est.mean < q + 3 * est.std_error


class TestQh:
    def test_limit_approaches_q_low(self):
        stats = stats_with_ratio(1e-12)
        assert bounds.q_h(stats, 0.3) == pytest.approx(0.3, abs=2e-3)

    def test_sphere_1e4_against_brute_force(self):
        # dense-grid brute force of both threshold functions, then scan
        stats = stats_with_ratio(1e-4)
        got = bounds.q_h(stats, 0.3)

        def b_low_brute(q):
            eps = np.exp(
                np.linspace(math.log(math.sqrt(2e-4 / q)) + 1e-12, math.log(1 - 1e-12), 200001)
            )
            vals = 2 * bounds.normal_quantile(1 - (q - 1e-4 * 2 / eps**2)) / (1 - eps)
            return float(np.min(vals))

        def b_high_brute(q):
            lo = math.sqrt(4e-4 / (1 - 2 * q))
            eps = np.exp(np.linspace(math.log(lo) + 1e-12, math.log(50.0), 200001))
            arg = 1 - (q + 2e-4 / eps**2)
            ok = arg > 0
            vals = 2 * bounds.normal_quantile(arg[ok]) / (1 + eps[ok])
            return float(np.max(vals))

        target = b_low_brute(0.3)
        qs = np.linspace(0.15, 0.3, 151)
        feasible = [q for q in qs if b_high_brute(float(q)) >= target]
        brute = max(feasible)
        assert got == pytest.approx(brute, abs=2e-3)
        # the coarse spec-level sanity: strictly inside (0, q_low]
        assert 0.0 < got <= 0.3

        # the q_low edge: the least q on a scan with b_low(q) < 4/sqrt(2 pi)
        qs = np.linspace(0.2, 0.3, 101)
        edge_brute = min(
            q for q in qs if b_low_brute(float(q)) < FOUR_OVER_SQRT_2PI
        )
        assert _q_low_edge(stats) == pytest.approx(edge_brute, abs=2e-3)

    def test_positive_whenever_trace_condition_holds(self):
        rng = np.random.default_rng(9)
        found = 0
        while found < 20:
            d = int(rng.integers(80, 2000))
            p = random_problem(rng, d, cond=float(rng.uniform(1, 3)))
            stats = eq.spectrum_stats(p)
            if not bounds.trace_condition(stats)[0]:
                continue
            found += 1
            # q_low close to 1/2 is always admissible under the trace condition
            assert bounds.q_h(stats, 0.49) > 0.0

    def test_infeasible_q_low(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(256), 0))
        with pytest.raises(eq.InfeasibleBound):
            bounds.q_h(stats, 0.2)  # b_low(0.2) > 4/sqrt(2 pi)


CLOSED_FORM_CASES = [
    pytest.param(eq.sphere(256), None, id="sphere256"),
    pytest.param(eq.sphere(512), None, id="sphere512"),
    pytest.param(eq.sphere(4096), None, id="sphere4096"),
    pytest.param(eq.ellipsoid(512, 10.0), 3, id="ellipsoid10-512-rotated"),
]


def closed_form_stats(eigenvalues, rotation_seed):
    problem = eq.make_problem(eigenvalues, 0, rotation_seed=rotation_seed)
    stats = eq.spectrum_stats(problem)
    assert bounds.trace_condition(stats)[0]
    return stats


class TestClosedForms:
    """Q_H and the q_low edge invert the threshold functions they stand for."""

    @pytest.mark.parametrize("eigenvalues, rotation_seed", CLOSED_FORM_CASES)
    def test_q_h_inverts_b_high(self, eigenvalues, rotation_seed):
        stats = closed_form_stats(eigenvalues, rotation_seed)
        edge = _q_low_edge(stats)
        for q_low in np.linspace(edge + 0.005, 0.49, 4):
            target = bounds.b_low(stats, float(q_low))
            floor = bounds.q_h(stats, float(q_low))
            assert bounds.b_high(stats, floor - 1e-9) >= target
            assert target > bounds.b_high(stats, floor + 1e-6)

    @pytest.mark.parametrize("eigenvalues, rotation_seed", CLOSED_FORM_CASES)
    def test_edge_inverts_b_low(self, eigenvalues, rotation_seed):
        stats = closed_form_stats(eigenvalues, rotation_seed)
        edge = _q_low_edge(stats)
        assert bounds.b_low(stats, edge + 1e-9) < FOUR_OVER_SQRT_2PI
        assert bounds.b_low(stats, edge - 1e-9) >= FOUR_OVER_SQRT_2PI


class TestConstants:
    def test_feasible_sphere_d256(self, sphere256, params256, constants256):
        c = constants256
        stats = eq.spectrum_stats(sphere256)
        assert c.band_gain > 0
        assert c.drift_bound > 0
        assert 2 * stats.ratio < c.q_low < 0.4 < c.q_high < 0.5
        assert FOUR_OVER_SQRT_2PI > c.b_low_at_qlow
        ratio_alpha = params256.alpha_up / params256.alpha_down
        assert c.b_low_at_qlow > ratio_alpha * c.b_high_at_qhigh
        assert 0 < c.b_small < c.b_large
        assert 0 < c.penalty_weight <= 1
        assert c.success_floor > 0
        assert c.rate_cap == pytest.approx(1.0 / (2 * 253))
        c.validate(params256)

    def test_thin_band_found_from_the_edge(self):
        # at d=74 the feasible q_low band (edge, 0.45) is about 1e-3 wide; a
        # q_low grid spread from 2 ratio, as with a wrong edge, misses it
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(74), 0))
        c = eq.constants(stats, eq.alpha_schedule(74, 0.45))
        assert 0.448 < _q_low_edge(stats) < c.q_low < 0.45

    def test_fields_are_python_floats(self, constants256):
        for name, value in vars(constants256).items():
            assert type(value) is float, name

    def test_band_gain_scaling_with_dimension(self):
        # band_gain * Tr / L stays bounded below across d at a fixed target
        values = []
        for d in (128, 256, 512):
            stats = eq.spectrum_stats(eq.make_problem(eq.sphere(d), 0))
            c = eq.constants(stats, eq.alpha_schedule(d, 0.45))
            values.append(c.band_gain * stats.trace / stats.L)
        assert min(values) > 0
        assert max(values) / min(values) < 50

    def test_rate_cap_sphere_d7(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(7), 0))
        # trace condition fails at d=7, but the cap itself is Cond/(2(d-3))
        assert rate_cap(stats) == pytest.approx(1.0 / 8.0)

    def test_rate_cap_requires_d_above_3(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(3), 0))
        with pytest.raises(eq.DomainError, match="d > 3"):
            rate_cap(stats)

    def test_p_target_02_infeasible_everywhere(self):
        # b_low(q) >= 2 QuantilePhi(1-q) > 4/sqrt(2 pi) for q <= 0.2, so no
        # q_low below a 0.2 target can exist, at any dimension
        for d in (256, 4096):
            stats = eq.spectrum_stats(eq.make_problem(eq.sphere(d), 0))
            with pytest.raises(eq.InfeasibleBound, match="p_target condition"):
                eq.constants(stats, eq.alpha_schedule(d, 0.2))

    def test_p_target_half_infeasible_pairing(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(256), 0))
        with pytest.raises(eq.InfeasibleBound, match="q_condition1"):
            eq.constants(stats, eq.EsParams(2.0, 0.5))

    def test_edge_decides_the_p_target_condition(self):
        """``constants`` refuses a target unless the q_low edge lies below it,
        which is the condition its message names, b_low(p_target) < 4/sqrt(2 pi),
        wherever the guards before it hold."""
        outcomes = set()
        for spectrum in (eq.sphere, lambda d: eq.cigar(d, 100.0),
                         lambda d: eq.ellipsoid(d, 100.0)):
            for d in (74, 128, 256):
                stats = eq.spectrum_stats(eq.make_problem(spectrum(d), 0))
                if not bounds.trace_condition(stats)[0]:
                    continue
                edge = _q_low_edge(stats)
                for pt in np.arange(20, 50) / 100.0:
                    if pt > 2.0 * stats.ratio:
                        feasible = bounds.b_low(stats, float(pt)) < FOUR_OVER_SQRT_2PI
                        assert (edge < pt) == feasible, (spectrum(d)[:2], pt)
                        outcomes.add(feasible)
        assert outcomes == {False, True}

    def test_trace_condition_gate(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(16), 0))
        with pytest.raises(eq.InfeasibleBound, match="trace condition"):
            eq.constants(stats, eq.alpha_schedule(16, 0.4))

    def test_minimal_feasible_dimension_recorded(self):
        # For a 0.45 target on spheres, feasibility turns on at some d0 and
        # stays on; locate d0 by bisection over d and spot-check both sides.
        target = 0.45

        def feasible(d):
            stats = eq.spectrum_stats(eq.make_problem(eq.sphere(d), 0))
            try:
                eq.constants(stats, eq.alpha_schedule(d, target))
                return True
            except eq.InfeasibleBound:
                return False

        lo, hi = 8, 512
        assert not feasible(lo)
        assert feasible(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if feasible(mid):
                hi = mid
            else:
                lo = mid
        d0 = hi
        print(f"minimal feasible sphere dimension at target 0.45: d0 = {d0}")
        assert 64 <= d0 <= 256
        assert feasible(d0) and not feasible(d0 - 1)


class TestQualityGainBound:
    def test_zero_at_critical_sigma(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(10), 0))
        grad_norm, f_val = 2.0, 1.5
        sigma = FOUR_OVER_SQRT_2PI * grad_norm / stats.trace
        assert bounds.quality_gain_bound(stats, grad_norm, f_val, sigma) * 0.77 == (
            pytest.approx(0.0, abs=1e-15)
        )

    def test_zero_success_probability(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(10), 0))
        assert bounds.quality_gain_bound(stats, 1.0, 1.0, 0.5) * 0.0 == 0.0

    def test_monte_carlo_respects_bound(self):
        rng = np.random.default_rng(12)
        for trial in range(20):
            d = int(rng.integers(6, 40))
            p = random_problem(rng, d)
            stats = eq.spectrum_stats(p)
            m = p.optimum + rng.normal(size=d)
            grad_norm = p.grad_norm_centered(p.centered(m))
            f_val = p.core(m)
            sigma = float(grad_norm / stats.trace * math.exp(rng.uniform(-1.5, 1.5)))
            lhs = montecarlo.estimate_log_progress(
                p, m, sigma, 20000, eq.RandomStream(3000 + trial)
            )
            psucc = montecarlo.estimate_success_prob(
                p, m, sigma, 20000, eq.RandomStream(3100 + trial)
            )
            coeff = bounds.quality_gain_bound(stats, grad_norm, f_val, sigma)
            rhs = coeff * psucc.mean
            se = math.hypot(lhs.std_error, coeff * psucc.std_error)
            assert lhs.mean <= rhs + 3 * se


class TestExpMomentBound:
    def test_sphere_d103(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(103), 0))
        assert bounds.exp_moment_bound(stats) == pytest.approx(1.01)

    def test_cond10_d13(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.ellipsoid(13, 10), 0))
        assert bounds.exp_moment_bound(stats) == pytest.approx(2.0)

    def test_requires_d_above_3(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(3), 0))
        with pytest.raises(eq.DomainError):
            bounds.exp_moment_bound(stats)

    def test_monte_carlo_respects_bound(self):
        rng = np.random.default_rng(14)
        for d in (8, 32):
            for cond in (1.0, 10.0):
                lam = eq.sphere(d) if cond == 1.0 else eq.ellipsoid(d, cond)
                p = eq.make_problem(lam, 0)
                stats = eq.spectrum_stats(p)
                m = p.optimum + rng.normal(size=d)
                grad_norm = p.grad_norm_centered(p.centered(m))
                sigma = grad_norm / stats.trace
                est = montecarlo.estimate_exp_abs(
                    p, m, sigma, 20000, eq.RandomStream(4000 + d + int(cond))
                )
                bound = bounds.exp_moment_bound(stats)
                assert est.mean <= bound + 3 * est.std_error


# constants(...).to_json() in TheoryConstants' field order, as float.hex,
# taken before the (q_low, q_high) search was batched.  Only bundles whose
# bits do not depend on numpy's SIMD dispatch are pinned: the eps grid is a
# numpy exp (ROADMAP, Standing constraints).
_PINNED_CONSTANTS = {
    ("sphere", 256, 0.4): (
        "0x1.0000000000000p-8 0x1.999999999990dp-2 0x1.8bd4b5f4fbc22p-2 0x1.a75ea475ea3fcp-2 "
        "0x1.ad04b73c3db0bp-3 0x1.6533a87fbfb99p+0 0x1.72e05667fbd84p-1 0x1.93ee43e00fd9ap-2 "
        "0x1.e06f056443c64p-4 0x1.42c74f49e5819p-17 0x1.83559258ad0d4p-12 0x1.308c95b528e52p-2 "
        "0x1.f7d886d3aeea0p+0 0x1.15c5ea5bf3173p-25 0x1.03091b51f5e1ap-9"),
    ("sphere", 256, 0.45): (
        "0x1.0000000000000p-8 0x1.ccccccccccde9p-2 0x1.bc58fb8055a9ap-2 0x1.dd40a57eb50eap-2 "
        "0x1.0d2519206c0a6p-4 0x1.edb5d03b4a10cp-1 0x1.0fa6694e5389bp+0 0x1.c0eff53dd84d8p-2 "
        "0x1.a18968be6e462p-3 0x1.1535ab9e65237p-16 0x1.30ee3cc7d5a73p-11 0x1.7e1e3d805b127p-4 "
        "0x1.5bfdeb04b7972p+0 0x1.1d0c4799c9a2fp-24 0x1.03091b51f5e1ap-9"),
    ("cigar", 256, 0.45): (
        "0x1.00fbdeaa78093p-8 0x1.ccccccccccde9p-2 0x1.bc78265f49e99p-2 0x1.dd2178ca27790p-2 "
        "0x1.0e10ef6530293p-4 0x1.ede2e8ff9f22fp-1 0x1.0fb07f208f332p+0 0x1.c173cd38a3f66p-2 "
        "0x1.a1195e8c15892p-3 0x1.64db1d6e5e883p-23 0x1.888aa05fce62ep-18 0x1.7f6d11c979d0cp-4 "
        "0x1.5c1db45a4a437p+0 0x1.6c3b1bb4b0d6cp-31 0x1.94be3ab010309p-3"),
    ("ellipsoid", 512, 0.45): (
        "0x1.689a736035404p-9 0x1.ccccccccccb56p-2 0x1.bb5c900934796p-2 0x1.de3d1f5ae3c28p-2 "
        "0x1.1b4f13694a4fcp-4 0x1.b693bd653662dp-1 0x1.db2e1db2b6548p-1 0x1.9eed6262a7eb6p-2 "
        "0x1.ec42bb4c7f7b5p-3 0x1.9bc3b15639bc8p-19 0x1.c4f0dcaba5f3bp-13 0x1.91714cb735c63p-4 "
        "0x1.35a02bb2343e8p+0 0x1.c0c8620c80bc4p-27 0x1.41e2d43e5d8c5p-7"),
    ("discus", 512, 0.4): (
        "0x1.270955816f96ap-9 0x1.9999999999704p-2 0x1.846cad4eea97ep-2 0x1.aec685931ad34p-2 "
        "0x1.aec7798cd2355p-3 0x1.3f2c50a61c3c8p+0 0x1.33fc5215d4a15p-1 0x1.5c70d70f5b134p-2 "
        "0x1.4f30bb9e5326cp-3 0x1.82e5132afb4cfp-17 0x1.d046170060b76p-11 0x1.3133d115b1109p-2 "
        "0x1.c2caa542aeb72p+0 0x1.00057499779d4p-24 0x1.41e2d43e5d8c5p-7"),
}


_PINNED_SPECTRA = {"sphere": eq.sphere, "cigar": lambda d: eq.cigar(d, 100.0),
                   "ellipsoid": lambda d: eq.ellipsoid(d, 10.0),
                   "discus": lambda d: eq.discus(d, 10.0)}


class TestBatchedSearch:
    """The threshold functions search all their q at once; every entry has
    the bits of a search of its own."""

    @pytest.mark.parametrize("family, d, target", list(_PINNED_CONSTANTS),
                             ids=[f"{f}{d}-{t}" for f, d, t in _PINNED_CONSTANTS])
    def test_constants_bits_are_pinned(self, family, d, target):
        stats = eq.spectrum_stats(eq.make_problem(_PINNED_SPECTRA[family](d), 0))
        c = eq.constants(stats, eq.alpha_schedule(d, target))
        pinned = _PINNED_CONSTANTS[family, d, target].split()
        assert [v.hex() for v in c.to_json().values()] == pinned

    def test_infeasible_message_is_pinned(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(74), 0))
        with pytest.raises(eq.InfeasibleBound) as info:
            eq.constants(stats, eq.alpha_schedule(74, 0.4))
        assert str(info.value) == (
            "p_target condition failed: b_low(p_target=0.4) = 2.18437 >= 4/sqrt(2 pi) = "
            "1.59577; no q_low below p_target can satisfy q_condition2")

    @pytest.mark.parametrize("d", [74, 256, 1024])
    def test_array_of_q_gives_each_scalar_result(self, d):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(d), 0))
        # q from just above 2 ratio, where b_low is inf over an empty grid,
        # to just below 1/2
        qs = np.r_[np.nextafter(2 * stats.ratio, 1.0),
                   np.linspace(2 * stats.ratio, 0.5, 23)[1:-1]]
        for fn, q in ((bounds.b_low, qs), (bounds.b_high, qs[1:])):
            value, eps = fn(stats, q, with_epsilon=True)
            each = [fn(stats, float(x), with_epsilon=True) for x in q]
            assert value.tobytes() == np.array([v for v, _ in each]).tobytes()
            assert eps.tobytes() == np.array([e for _, e in each]).tobytes()
        assert value.dtype == float and type(each[0][0]) is float
        assert bounds.b_low(stats, qs[0]) == math.inf

    def test_constants_do_not_depend_on_avx512(self):
        # numpy dispatches exp per CPU; the default config's constants have
        # the same bits in a process with numpy's AVX-512 loops off
        path = REPO_ROOT / "configs" / "default.json"
        config = json.loads(path.read_text())
        c = eq.constants(eq.spectrum_stats(eq.problem_from_json(config["problem"])),
                         eq.EsParams(**config["params"]))
        code = ("import json, esquad as eq\n"
                f"config = json.load(open({str(path)!r}))\n"
                "c = eq.constants(eq.spectrum_stats(eq.problem_from_json(config['problem'])),\n"
                "                 eq.EsParams(**config['params']))\n"
                "print(' '.join(v.hex() for v in c.to_json().values()))\n")
        off = run_python(code, NPY_DISABLE_CPU_FEATURES="X86_V4")
        assert off == " ".join(v.hex() for v in c.to_json().values())
