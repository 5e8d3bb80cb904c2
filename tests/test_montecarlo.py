import math
import types

import numpy as np
import pytest

import esquad as eq
from esquad import montecarlo
from conftest import random_problem


class TestSuccessProb:
    def test_vanishing_sigma_approaches_half(self):
        p = eq.make_problem(eq.ellipsoid(12, 5), 0)
        m = p.optimum + np.ones(12)
        sigma = 1e-12 * float(np.linalg.norm(m - p.optimum))
        est = eq.estimate_success_prob(p, m, sigma, 10000, eq.RandomStream(1))
        assert abs(est.mean - 0.5) <= 3 * est.std_error + 1e-12

    def test_overshoot_limit_near_zero(self):
        p = eq.make_problem(eq.sphere(16), 0)
        m = p.optimum + np.ones(16) / 4.0
        sigma = 1e6 * float(np.linalg.norm(m - p.optimum))
        est = eq.estimate_success_prob(p, m, sigma, 10000, eq.RandomStream(2))
        assert est.mean < 0.01
        assert est.mean <= 3 * est.std_error + 1e-12

    def test_inside_sandwich_sphere_d100(self):
        p = eq.make_problem(eq.sphere(100), 0)
        stats = eq.spectrum_stats(p)
        m = p.optimum + np.ones(100) / 10.0
        grad_norm = float(np.linalg.norm(p.gradient_core(m)))
        sigma = 1.0 * grad_norm / stats.trace
        est = eq.estimate_success_prob(p, m, sigma, 100000, eq.RandomStream(3))
        lower, upper = eq.success_prob_sandwich(stats, 1.0, 0.5)
        assert lower - 3 * est.std_error <= est.mean <= upper + 3 * est.std_error

    def test_minimum_n(self):
        p = eq.make_problem(eq.sphere(4), 0)
        with pytest.raises(eq.DomainError):
            eq.estimate_success_prob(p, np.ones(4), 0.1, 50, eq.RandomStream(0))

    def test_degenerate_state(self):
        p = eq.make_problem(eq.sphere(4), 0)
        with pytest.raises(eq.DegenerateState):
            eq.estimate_success_prob(p, np.zeros(4), 0.1, 1000, eq.RandomStream(0))


class TestLogProgress:
    def test_vanishing_sigma_vanishes(self):
        p = eq.make_problem(eq.sphere(8), 0)
        m = p.optimum + np.ones(8)
        scale = float(np.linalg.norm(m - p.optimum))
        est = eq.estimate_log_progress(p, m, 1e-8 * scale, 5000, eq.RandomStream(4))
        assert abs(est.mean) < 1e-6

    def test_always_nonpositive(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            d = int(rng.integers(4, 20))
            p = random_problem(rng, d)
            m = p.optimum + rng.normal(size=d)
            sigma = float(math.exp(rng.uniform(-3, 3)))
            est = eq.estimate_log_progress(p, m, sigma, 500, eq.RandomStream(trial))
            assert est.mean <= 0.0


class TestExpAbs:
    def test_vanishing_sigma_approaches_one(self):
        p = eq.make_problem(eq.sphere(8), 0)
        m = p.optimum + np.ones(8)
        est = eq.estimate_exp_abs(p, m, 1e-10, 2000, eq.RandomStream(6))
        assert est.mean == pytest.approx(1.0, abs=1e-6)

    def test_at_least_one(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            d = int(rng.integers(5, 16))
            p = random_problem(rng, d)
            m = p.optimum + rng.normal(size=d)
            sigma = float(math.exp(rng.uniform(-2, 2)))
            est = eq.estimate_exp_abs(p, m, sigma, 1000, eq.RandomStream(trial))
            assert est.mean >= 1.0

    def test_bound_d8_d32(self):
        rng = np.random.default_rng(8)
        for d in (8, 32):
            for cond in (1.0, 10.0):
                lam = eq.sphere(d) if cond == 1 else eq.ellipsoid(d, cond)
                p = eq.make_problem(lam, 0)
                stats = eq.spectrum_stats(p)
                m = p.optimum + rng.normal(size=d)
                sigma = float(np.linalg.norm(p.gradient_core(m))) / stats.trace
                est = eq.estimate_exp_abs(
                    p, m, sigma, 20000, eq.RandomStream(60 + d + int(cond))
                )
                assert est.mean <= eq.exp_moment_bound(stats, d) + 3 * est.std_error


class TestDriftV:
    def test_pathwise_cap_every_sample(self, sphere256, params256, constants256):
        state = eq.default_initial_state(sphere256)
        est, samples = eq.estimate_drift_V(
            sphere256, state, constants256, params256, 2000,
            eq.RandomStream(9), with_samples=True,
        )
        cap = eq.potential_step_cap(constants256, params256)
        assert np.all(samples <= cap)
        assert est.n == 2000

    def test_minimum_n(self, sphere256, params256, constants256):
        with pytest.raises(eq.DomainError):
            eq.estimate_drift_V(
                sphere256, eq.default_initial_state(sphere256), constants256,
                params256, 500, eq.RandomStream(0),
            )


class TestEstimatorContracts:
    def test_bit_reproducibility(self):
        p = eq.make_problem(eq.ellipsoid(10, 3), 0)
        m = p.optimum + np.ones(10)
        a = eq.estimate_success_prob(p, m, 0.3, 5000, eq.RandomStream(55, (7,)))
        b = eq.estimate_success_prob(p, m, 0.3, 5000, eq.RandomStream(55, (7,)))
        assert a == b
        c = eq.estimate_log_progress(p, m, 0.3, 5000, eq.RandomStream(56))
        d = eq.estimate_log_progress(p, m, 0.3, 5000, eq.RandomStream(56))
        assert c == d

    def test_chunking_does_not_change_results(
        self, monkeypatch, sphere256, params256, constants256
    ):
        m = sphere256.optimum + np.ones(256)
        state = eq.default_initial_state(sphere256)

        def all_four():
            return (
                eq.estimate_success_prob(sphere256, m, 0.4, 1000, eq.RandomStream(77)),
                eq.estimate_log_progress(sphere256, m, 0.4, 1000, eq.RandomStream(78)),
                eq.estimate_exp_abs(sphere256, m, 0.4, 1000, eq.RandomStream(79)),
                eq.estimate_drift_V(sphere256, state, constants256, params256,
                                    1000, eq.RandomStream(80)),
            )

        ref = all_four()
        monkeypatch.setattr(montecarlo, "_chunk_rows", lambda d: 17)
        assert all_four() == ref

    def test_se_shrinks_like_sqrt_n(self):
        p = eq.make_problem(eq.sphere(8), 0)
        m = p.optimum + np.ones(8)
        ratios = []
        for k in range(10):
            a = eq.estimate_log_progress(
                p, m, 0.5, 4000, eq.RandomStream(100 + k)
            )
            b = eq.estimate_log_progress(
                p, m, 0.5, 8000, eq.RandomStream(200 + k)
            )
            ratios.append(a.std_error / b.std_error)
        mean_ratio = float(np.mean(ratios))
        assert abs(mean_ratio - math.sqrt(2.0)) < 0.2 * math.sqrt(2.0)

    def test_estimator_ids(self):
        p = eq.make_problem(eq.sphere(4), 0)
        m = p.optimum + np.ones(4)
        assert "antithetic" in eq.estimate_success_prob(
            p, m, 0.1, 100, eq.RandomStream(0)
        ).estimator_id
        assert eq.estimate_log_progress(
            p, m, 0.1, 100, eq.RandomStream(0)
        ).estimator_id.startswith("log_progress")


def _four_estimators(p, m, sigma, constants, params):
    """Each estimator as a call with the given m and sigma."""
    # drift_V takes any object with m and log_sigma; an EsState could not
    # even hold the non-finite values tested here
    if sigma > 0:
        log_sigma = math.log(sigma)
    else:
        log_sigma = -math.inf if sigma == 0 else math.nan
    state = types.SimpleNamespace(m=m, log_sigma=log_sigma)
    return {
        "success_prob": lambda: eq.estimate_success_prob(
            p, m, sigma, 1000, eq.RandomStream(0)),
        "log_progress": lambda: eq.estimate_log_progress(
            p, m, sigma, 1000, eq.RandomStream(0)),
        "exp_abs": lambda: eq.estimate_exp_abs(p, m, sigma, 1000, eq.RandomStream(0)),
        "drift_V": lambda: eq.estimate_drift_V(
            p, state, constants, params, 1000, eq.RandomStream(0)),
    }


ESTIMATORS = ("success_prob", "log_progress", "exp_abs", "drift_V")


class TestInvalidInputs:
    """An invalid input raises; it never yields a confident estimate."""

    # a state's sigma is exp(log_sigma), so drift_V never sees a negative one
    @pytest.mark.parametrize("name,sigma", [
        (name, sigma) for name in ESTIMATORS
        for sigma in (math.nan, math.inf, 0.0, -0.5)
        if not (name == "drift_V" and sigma < 0)
    ])
    def test_sigma_must_be_finite_and_positive(
        self, name, sigma, sphere256, params256, constants256
    ):
        m = sphere256.optimum + np.ones(256)
        call = _four_estimators(sphere256, m, sigma, constants256, params256)[name]
        with pytest.raises(eq.DomainError):
            call()

    @pytest.mark.parametrize("name", ESTIMATORS)
    def test_m_must_be_finite(self, name, sphere256, params256, constants256):
        for bad in (math.nan, math.inf):
            m = sphere256.optimum + np.ones(256)
            m[3] = bad
            call = _four_estimators(sphere256, m, 0.1, constants256, params256)[name]
            with pytest.raises(eq.DomainError):
                call()

    def test_drift_sigma_underflow(self, sphere256, params256, constants256):
        state = eq.EsState(sphere256.optimum + np.ones(256), -1000.0)  # sigma 0.0
        with pytest.raises(eq.DomainError):
            eq.estimate_drift_V(sphere256, state, constants256, params256, 1000,
                                eq.RandomStream(0))

    @pytest.mark.parametrize("name", ESTIMATORS)
    def test_core_must_be_representable(self, name, sphere256, params256,
                                         constants256):
        m = sphere256.optimum + np.full(256, 1e-200)  # the core underflows to 0
        call = _four_estimators(sphere256, m, 1e-200, constants256, params256)[name]
        with pytest.raises(eq.NumericalFailure):
            call()


def _sampled(p, m, sigma, rows, seed):
    """Decrement terms and log gains of the sampler, concatenated over chunks."""
    chunks = []

    def grab(lin, quad, gain):
        chunks.append((lin, quad, gain()))
        return lin

    montecarlo._sample(p, m, sigma, rows, eq.RandomStream(seed), grab)
    return [np.concatenate(parts) for parts in zip(*chunks)]


class TestSamplerMatchesDirectEvaluation:
    """The decrement form against cores of the offspring y +- sigma z."""

    @pytest.mark.parametrize("rotation_seed", [None, 5])
    @pytest.mark.parametrize("sigma_scale", [0.05, 0.3, 1.0])
    def test_per_row(self, monkeypatch, rotation_seed, sigma_scale):
        monkeypatch.setattr(montecarlo, "_chunk_rows", lambda d: 37)
        rng = np.random.default_rng(17)
        p = eq.make_problem(eq.ellipsoid(6, 30.0), rng.normal(size=6),
                            rotation_seed=rotation_seed)
        m = p.optimum + rng.normal(size=6)
        y = m - p.optimum
        sigma = sigma_scale * float(np.linalg.norm(y))
        rows = 500
        lin, quad, gain = _sampled(p, m, sigma, rows, seed=23)
        Z = eq.normal_matrix(eq.RandomStream(23), rows, 6)
        core_m = p.core_centered(y)
        plus = np.array([p.core_centered(y + sigma * z) for z in Z])
        minus = np.array([p.core_centered(y - sigma * z) for z in Z])
        for delta, core_x in ((lin + quad, plus), (quad - lin, minus)):
            clear = np.abs(core_x - core_m) > 1e-9 * core_m
            assert np.array_equal((delta <= 0.0)[clear], (core_x <= core_m)[clear])
        accept = lin + quad <= 0.0
        assert np.all(gain[~accept] == 0.0)
        exact = np.log(plus[accept] / core_m)
        assert np.max(np.abs(gain[accept] - exact)) <= 1e-12
        if sigma_scale == 0.3:  # reaches the direct-evaluation rows
            assert np.count_nonzero(lin + quad <= -0.5 * core_m) >= 5


class TestAntitheticPairs:
    """At most one of z and -z is accepted, so a pair's two indicators are
    negatively correlated and the pair mean has at most half the variance of
    one indicator."""

    @pytest.mark.parametrize("lam,rotation_seed", [
        (eq.sphere(16), None), (eq.ellipsoid(16, 100.0), 11),
    ])
    @pytest.mark.parametrize("sigma_scale", [0.1, 0.5])
    def test_pair_covariance_nonpositive(self, lam, rotation_seed, sigma_scale):
        p = eq.make_problem(lam, 0, rotation_seed=rotation_seed)
        m = p.optimum + eq.normal_vector(eq.RandomStream(3), 16)
        y = m - p.optimum
        sigma = sigma_scale * float(np.linalg.norm(y))
        pairs = 2000
        est = eq.estimate_success_prob(p, m, sigma, 2 * pairs, eq.RandomStream(31))
        Z = eq.normal_matrix(eq.RandomStream(31), pairs, 16)
        core_m = p.core_centered(y)
        a = np.array([p.core_centered(y + sigma * z) <= core_m for z in Z], float)
        b = np.array([p.core_centered(y - sigma * z) <= core_m for z in Z], float)
        pair_means = 0.5 * (a + b)
        assert est.mean == pytest.approx(float(np.mean(pair_means)), abs=1e-15)
        assert est.std_error == pytest.approx(
            float(np.std(pair_means, ddof=1)) / math.sqrt(pairs), rel=1e-12)
        assert 0.0 < np.mean(a) < 1.0
        assert np.cov(a, b)[0, 1] <= 0.0
        single = 0.5 * (np.var(a, ddof=1) + np.var(b, ddof=1))
        assert est.std_error ** 2 * pairs <= 0.5 * single * (1 + 1e-12)
