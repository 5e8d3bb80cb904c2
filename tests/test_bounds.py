import math

import numpy as np
import pytest

import esquad as eq
from esquad.bounds import FOUR_OVER_SQRT_2PI, _q_low_edge
from conftest import random_problem


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
        assert eq.normal_cdf(0.0) == 0.5

    def test_cdf_classic_value(self):
        assert eq.normal_cdf(-math.sqrt(2.0 / math.pi)) == pytest.approx(
            0.2123, abs=5e-4
        )

    def test_quantile_08(self):
        assert eq.normal_quantile(0.8) == pytest.approx(0.841621, abs=1e-5)
        assert eq.normal_quantile(0.8) == pytest.approx(
            quantile_oracle(0.8), abs=1e-9
        )

    def test_cdf_matches_series_oracle(self):
        for x in np.linspace(-3, 3, 61):
            assert eq.normal_cdf(float(x)) == pytest.approx(
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
            assert eq.normal_quantile(eq.normal_cdf(x)) == pytest.approx(
                x, abs=1e-9 + info_limit
            )
        # the stated 1e-9 holds everywhere the inverse is informationally exact
        for x in np.linspace(-8, 5.5, 64):
            assert eq.normal_quantile(eq.normal_cdf(float(x))) == pytest.approx(
                float(x), abs=1e-9
            )

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(eq.DomainError):
                eq.normal_quantile(bad)

    def test_vectorized(self):
        xs = np.array([-1.0, 0.0, 1.0])
        assert eq.normal_cdf(xs).shape == (3,)
        assert np.allclose(eq.normal_quantile(eq.normal_cdf(xs)), xs)


class TestTraceCondition:
    def test_threshold_value(self):
        thr = eq.trace_condition_threshold()
        assert thr == pytest.approx(0.014459, abs=5e-6)
        # second term is the smaller one
        t1 = cdf_oracle(1.0 / math.sqrt(2 * math.pi)) - 0.5
        t2 = 1.0 - cdf_oracle(3.0 / math.sqrt(2 * math.pi))
        assert t2 < t1
        assert thr == pytest.approx(t2 / 8.0, rel=1e-10)

    def test_sphere_d100_passes(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(100), 0))
        ok, margin = eq.trace_condition(stats)
        assert ok and margin > 0

    def test_sphere_d10_fails(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(10), 0))
        ok, margin = eq.trace_condition(stats)
        assert not ok and margin < 0


class TestSandwich:
    def test_collapses_when_ratio_zero(self):
        stats = stats_with_ratio(0.0)
        for s in (0.3, 1.0, 2.5):
            lower, upper = eq.success_prob_sandwich(stats, s, 1e-9)
            assert lower == pytest.approx(eq.normal_cdf(-s / 2), abs=1e-9)
            assert upper == pytest.approx(eq.normal_cdf(-s / 2), abs=1e-9)

    def test_sphere_d100_formula(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(100), 0))
        lower, upper = eq.success_prob_sandwich(stats, 1.0, 0.5)
        assert lower == pytest.approx(eq.normal_cdf(-0.75) - 0.08)
        assert upper == pytest.approx(eq.normal_cdf(-0.25) + 0.08)
        assert lower <= upper

    def test_monte_carlo_inside_sandwich(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            d = int(rng.integers(30, 120))
            p = random_problem(rng, d, cond=float(rng.uniform(1, 4)))
            stats = eq.spectrum_stats(p)
            m = p.optimum + rng.normal(size=d)
            grad_norm = float(np.linalg.norm(p.gradient_core(m)))
            s = float(rng.uniform(0.2, 3.0))
            sigma = s * grad_norm / stats.trace
            est = eq.estimate_success_prob(
                p, m, sigma, 20000, eq.RandomStream(1000 + trial)
            )
            lower, upper = eq.success_prob_sandwich(stats, s, 0.5)
            assert lower - 3 * est.std_error <= est.mean
            assert est.mean <= upper + 3 * est.std_error


class TestBHigh:
    def test_limit_matches_two_quantile(self):
        stats = stats_with_ratio(1e-12)
        assert eq.b_high(stats, 0.2) == pytest.approx(
            2 * eq.normal_quantile(0.8), abs=1e-3
        )

    def test_strictly_decreasing(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(1000), 0))
        values = [eq.b_high(stats, q) for q in (0.1, 0.2, 0.3, 0.4)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_capped_by_two_quantile(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            stats = stats_with_ratio(float(rng.uniform(1e-6, 0.014)))
            q = float(rng.uniform(0.02, 0.48))
            assert eq.b_high(stats, q) <= 2 * eq.normal_quantile(1 - q) + 1e-12

    def test_domain(self):
        stats = stats_with_ratio(1e-4)
        for bad in (0.0, 0.5, 0.7):
            with pytest.raises(eq.DomainError):
                eq.b_high(stats, bad)

    def test_epsilon_recorded(self):
        stats = stats_with_ratio(1e-4)
        value, epsilon = eq.b_high(stats, 0.3, with_epsilon=True)
        assert value > 0
        assert epsilon > math.sqrt(4 * 1e-4 / (1 - 0.6))


class TestBLow:
    def test_limit_matches_two_quantile(self):
        stats = stats_with_ratio(1e-12)
        assert eq.b_low(stats, 0.3) == pytest.approx(
            2 * eq.normal_quantile(0.7), abs=1e-3
        )

    def test_floored_by_two_quantile(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            r = float(rng.uniform(1e-6, 0.014))
            stats = stats_with_ratio(r)
            q = float(rng.uniform(2 * r + 0.01, 0.49))
            assert eq.b_low(stats, q) >= 2 * eq.normal_quantile(1 - q) - 1e-12

    def test_strictly_decreasing(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(1000), 0))
        values = [eq.b_low(stats, q) for q in (0.1, 0.2, 0.3, 0.4)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain_and_feasibility(self):
        stats = stats_with_ratio(0.01)
        with pytest.raises(eq.DomainError):
            eq.b_low(stats, 0.015)  # q <= 2 r
        with pytest.raises(eq.InfeasibleBound):
            eq.b_low(stats_with_ratio(0.3), 0.45)  # ratio >= 1/4

    def test_floor_holds_just_above_two_ratio(self):
        # the eps interval (sqrt(2 ratio / q), 1) is narrower than the grid's
        # 1e-12 inset here; a grid running past eps = 1 gave -7e16 at d=256
        for d in (256, 1024):
            stats = eq.spectrum_stats(eq.make_problem(eq.sphere(d), 0))
            q = 2 * stats.ratio + 1e-15
            assert eq.b_low(stats, q) >= 2 * eq.normal_quantile(1 - q)
            # an ulp above 2 ratio the interval holds no grid: inf over nothing
            q = float(np.nextafter(2 * stats.ratio, 1.0))
            assert eq.b_low(stats, q) == math.inf

    def test_b_low_dominates_b_high(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(500), 0))
        for q in (0.05, 0.15, 0.25, 0.35, 0.45):
            assert eq.b_low(stats, q) >= eq.b_high(stats, q)

    def test_large_sigma_norm_implies_low_success(self):
        # states with sigma_norm >= b_low(q) have MC success prob < q + 3 SE
        rng = np.random.default_rng(4)
        for trial in range(10):
            d = int(rng.integers(50, 150))
            p = random_problem(rng, d, cond=float(rng.uniform(1, 3)))
            stats = eq.spectrum_stats(p)
            q = float(rng.uniform(max(0.1, 2.5 * stats.ratio), 0.45))
            threshold = eq.b_low(stats, q)
            m = p.optimum + rng.normal(size=d)
            grad_norm = float(np.linalg.norm(p.gradient_core(m)))
            sigma = (threshold * 1.0001) * grad_norm / stats.trace
            est = eq.estimate_success_prob(
                p, m, sigma, 20000, eq.RandomStream(2000 + trial)
            )
            assert est.mean < q + 3 * est.std_error


class TestQh:
    def test_limit_approaches_q_low(self):
        stats = stats_with_ratio(1e-12)
        assert eq.q_h(stats, 0.3) == pytest.approx(0.3, abs=2e-3)

    def test_sphere_1e4_against_brute_force(self):
        # dense-grid brute force of both threshold functions, then scan
        stats = stats_with_ratio(1e-4)
        got = eq.q_h(stats, 0.3)

        def b_low_brute(q):
            eps = np.exp(
                np.linspace(math.log(math.sqrt(2e-4 / q)) + 1e-12, math.log(1 - 1e-12), 200001)
            )
            vals = 2 * eq.normal_quantile(1 - (q - 1e-4 * 2 / eps**2)) / (1 - eps)
            return float(np.min(vals))

        def b_high_brute(q):
            lo = math.sqrt(4e-4 / (1 - 2 * q))
            eps = np.exp(np.linspace(math.log(lo) + 1e-12, math.log(50.0), 200001))
            arg = 1 - (q + 2e-4 / eps**2)
            ok = arg > 0
            vals = 2 * eq.normal_quantile(arg[ok]) / (1 + eps[ok])
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
            if not eq.trace_condition(stats)[0]:
                continue
            found += 1
            # q_low close to 1/2 is always admissible under the trace condition
            assert eq.q_h(stats, 0.49) > 0.0

    def test_infeasible_q_low(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(256), 0))
        with pytest.raises(eq.InfeasibleBound):
            eq.q_h(stats, 0.2)  # b_low(0.2) > 4/sqrt(2 pi)


CLOSED_FORM_CASES = [
    pytest.param(eq.sphere(256), None, id="sphere256"),
    pytest.param(eq.sphere(512), None, id="sphere512"),
    pytest.param(eq.sphere(4096), None, id="sphere4096"),
    pytest.param(eq.ellipsoid(512, 10.0), 3, id="ellipsoid10-512-rotated"),
]


def closed_form_stats(eigenvalues, rotation_seed):
    problem = eq.make_problem(eigenvalues, 0, rotation_seed=rotation_seed)
    stats = eq.spectrum_stats(problem)
    assert eq.trace_condition(stats)[0]
    return stats


class TestClosedForms:
    """Q_H and the q_low edge invert the threshold functions they stand for."""

    @pytest.mark.parametrize("eigenvalues, rotation_seed", CLOSED_FORM_CASES)
    def test_q_h_inverts_b_high(self, eigenvalues, rotation_seed):
        stats = closed_form_stats(eigenvalues, rotation_seed)
        edge = _q_low_edge(stats)
        for q_low in np.linspace(edge + 0.005, 0.49, 4):
            target = eq.b_low(stats, float(q_low))
            floor = eq.q_h(stats, float(q_low))
            assert eq.b_high(stats, floor - 1e-9) >= target
            assert target > eq.b_high(stats, floor + 1e-6)

    @pytest.mark.parametrize("eigenvalues, rotation_seed", CLOSED_FORM_CASES)
    def test_edge_inverts_b_low(self, eigenvalues, rotation_seed):
        stats = closed_form_stats(eigenvalues, rotation_seed)
        edge = _q_low_edge(stats)
        assert eq.b_low(stats, edge + 1e-9) < FOUR_OVER_SQRT_2PI
        assert eq.b_low(stats, edge - 1e-9) >= FOUR_OVER_SQRT_2PI


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
        assert stats.cond / (2 * (stats.d - 3)) == pytest.approx(1.0 / 8.0)

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
        assert eq.quality_gain_bound(stats, grad_norm, f_val, sigma, 0.77) == (
            pytest.approx(0.0, abs=1e-15)
        )

    def test_zero_success_probability(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(10), 0))
        assert eq.quality_gain_bound(stats, 1.0, 1.0, 0.5, 0.0) == 0.0

    def test_monte_carlo_respects_bound(self):
        rng = np.random.default_rng(12)
        for trial in range(20):
            d = int(rng.integers(6, 40))
            p = random_problem(rng, d)
            stats = eq.spectrum_stats(p)
            m = p.optimum + rng.normal(size=d)
            grad_norm = float(np.linalg.norm(p.gradient_core(m)))
            f_val = p.core(m)
            sigma = float(grad_norm / stats.trace * math.exp(rng.uniform(-1.5, 1.5)))
            lhs = eq.estimate_log_progress(
                p, m, sigma, 20000, eq.RandomStream(3000 + trial)
            )
            psucc = eq.estimate_success_prob(
                p, m, sigma, 20000, eq.RandomStream(3100 + trial)
            )
            coeff = eq.quality_gain_bound(stats, grad_norm, f_val, sigma, 1.0)
            rhs = coeff * psucc.mean
            se = math.hypot(lhs.std_error, coeff * psucc.std_error)
            assert lhs.mean <= rhs + 3 * se


class TestExpMomentBound:
    def test_sphere_d103(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(103), 0))
        assert eq.exp_moment_bound(stats, 103) == pytest.approx(1.01)

    def test_cond10_d13(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.ellipsoid(13, 10), 0))
        assert eq.exp_moment_bound(stats, 13) == pytest.approx(2.0)

    def test_requires_d_above_3(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(3), 0))
        with pytest.raises(eq.DomainError):
            eq.exp_moment_bound(stats, 3)

    def test_monte_carlo_respects_bound(self):
        rng = np.random.default_rng(14)
        for d in (8, 32):
            for cond in (1.0, 10.0):
                lam = eq.sphere(d) if cond == 1.0 else eq.ellipsoid(d, cond)
                p = eq.make_problem(lam, 0)
                stats = eq.spectrum_stats(p)
                m = p.optimum + rng.normal(size=d)
                grad_norm = float(np.linalg.norm(p.gradient_core(m)))
                sigma = grad_norm / stats.trace
                est = eq.estimate_exp_abs(
                    p, m, sigma, 20000, eq.RandomStream(4000 + d + int(cond))
                )
                bound = eq.exp_moment_bound(stats, d)
                assert est.mean <= bound + 3 * est.std_error
