import math

import numpy as np
import pytest

import esquad as eq
from esquad.potential import classify_from_logs, potential_from_logs


def synthetic_constants(**overrides):
    """Hand-built constants bundle for threshold and penalty mechanics."""
    fields = dict(
        trace_ratio=0.004,
        p_target=0.4,
        q_low=0.39,
        q_high=0.41,
        b_high_at_qhigh=0.21,
        b_low_at_qlow=1.39,
        eps_high=0.3,
        eps_low=0.3,
        success_floor=0.12,
        band_gain=1e-5,
        penalty_weight=3.8e-4,
        b_small=0.30,
        b_large=1.96,
        drift_bound=3e-8,
        rate_cap=1.0 / 506,
    )
    fields.update(overrides)
    return eq.TheoryConstants(**fields)


class TestClassify:
    def test_tiny_sigma_is_small_step(self, sphere256, constants256):
        state = eq.default_initial_state(sphere256)
        tiny = eq.EsState(state.m, state.log_sigma + math.log(1e-9))
        assert eq.classify(tiny, sphere256, constants256) is eq.RegimeLabel.SMALL_STEP

    def test_huge_sigma_is_large_step(self, sphere256, constants256):
        state = eq.default_initial_state(sphere256)
        huge = eq.EsState(state.m, state.log_sigma + math.log(1e9))
        assert eq.classify(huge, sphere256, constants256) is eq.RegimeLabel.LARGE_STEP

    def test_geometric_mean_is_reasonable(self, sphere256, constants256):
        stats = eq.spectrum_stats(sphere256)
        state = eq.default_initial_state(sphere256)
        y = state.m - sphere256.optimum
        f_val = sphere256.core_centered(y)
        grad = sphere256.grad_norm_centered(y)
        thr_small = (
            math.sqrt(2.0) * constants256.b_high_at_qhigh
            * math.sqrt(stats.L * f_val) / stats.trace
        )
        thr_large = constants256.b_low_at_qlow * grad / stats.trace
        assert thr_small < thr_large
        mid = eq.EsState(state.m, 0.5 * (math.log(thr_small) + math.log(thr_large)))
        assert eq.classify(mid, sphere256, constants256) is eq.RegimeLabel.REASONABLE

    def test_boundaries_classify_reasonable(self):
        c = synthetic_constants()
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(16), 0))
        log_f, log_grad = 0.0, 0.5 * math.log(2.0 * stats.L * 1.0)
        thr_small = (
            math.log(math.sqrt(2.0) * c.b_high_at_qhigh)
            + 0.5 * (math.log(stats.L) + log_f)
            - math.log(stats.trace)
        )
        thr_large = math.log(c.b_low_at_qlow) + log_grad - math.log(stats.trace)
        assert classify_from_logs(log_f, log_grad, thr_small, stats, c) is (
            eq.RegimeLabel.REASONABLE
        )
        assert classify_from_logs(log_f, log_grad, thr_large, stats, c) is (
            eq.RegimeLabel.REASONABLE
        )

    def test_degenerate_state(self, sphere256, constants256):
        at_opt = eq.EsState(np.zeros(256), 0.0)
        with pytest.raises(eq.DegenerateState):
            eq.classify(at_opt, sphere256, constants256)


class TestPotentialValue:
    def test_reasonable_band_no_penalty(self, sphere256, constants256):
        stats = eq.spectrum_stats(sphere256)
        state = eq.default_initial_state(sphere256)
        y = state.m - sphere256.optimum
        log_f = sphere256.log_core_centered(y)
        # pick sigma with both penalty arguments <= 1
        lo = math.log(constants256.b_small) + 0.5 * (math.log(stats.L) + log_f) - math.log(stats.trace)
        hi = math.log(constants256.b_large) + 0.5 * (math.log(stats.L) + log_f) - math.log(stats.trace)
        mid = eq.EsState(state.m, 0.5 * (lo + hi))
        assert eq.potential_value(mid, sphere256, constants256) == pytest.approx(
            log_f, rel=1e-12
        )

    def test_small_sigma_penalty_diverges(self, sphere256, constants256):
        state = eq.default_initial_state(sphere256)
        y = state.m - sphere256.optimum
        log_f = sphere256.log_core_centered(y)
        values = [
            eq.potential_value(
                eq.EsState(state.m, state.log_sigma - k), sphere256, constants256
            )
            - log_f
            for k in (10.0, 20.0, 40.0)
        ]
        assert values[0] < values[1] < values[2]
        v = constants256.penalty_weight
        # asymptotically linear in -log sigma with slope v
        assert values[2] - values[1] == pytest.approx(20.0 * v, rel=1e-6)

    def test_at_most_one_penalty_active(self):
        c = synthetic_constants()
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(8), 0))
        rng = np.random.default_rng(3)
        for _ in range(1000):
            log_f = float(rng.uniform(-700, 100))
            log_sigma = float(rng.uniform(-400, 60))
            half = 0.5 * (math.log(stats.L) + log_f)
            pen_small = max(
                math.log(c.b_small) + half - math.log(stats.trace) - log_sigma, 0.0
            )
            pen_large = max(
                math.log(stats.trace) + log_sigma - math.log(c.b_large) - half, 0.0
            )
            assert min(pen_small, pen_large) == 0.0
            v_val = potential_from_logs(log_f, log_sigma, stats, c)
            assert v_val >= log_f
            assert v_val == pytest.approx(
                log_f + c.penalty_weight * (pen_small + pen_large), rel=1e-12, abs=1e-12
            )

    def test_degenerate_state(self, sphere256, constants256):
        with pytest.raises(eq.DegenerateState):
            eq.potential_value(
                eq.EsState(np.zeros(256), 0.0), sphere256, constants256
            )


class TestDriftTarget:
    def test_reasonable_target(self, params256, constants256):
        assert eq.drift_target(
            eq.RegimeLabel.REASONABLE, constants256, params256
        ) == -constants256.band_gain / 4.0

    def test_small_and_large_targets(self, params256, constants256):
        min_term = min(constants256.band_gain / 4.0, params256.log_ratio)
        small = eq.drift_target(eq.RegimeLabel.SMALL_STEP, constants256, params256)
        large = eq.drift_target(eq.RegimeLabel.LARGE_STEP, constants256, params256)
        assert small == -min_term * (constants256.q_high - constants256.p_target)
        assert large == -min_term * (constants256.p_target - constants256.q_low)
        assert small < 0 and large < 0
        # gap factors are below 1/2 in magnitude
        assert abs(small) <= min_term * 0.5
        assert abs(large) <= min_term * 0.5

    def test_degenerate_gap_rejected_by_validate(self, params256, constants256):
        from dataclasses import replace

        broken = replace(constants256, q_high=constants256.p_target)
        with pytest.raises(eq.InfeasibleBound):
            broken.validate(params256)


class TestPathwiseBounds:
    def test_on_trace(self, sphere256, params256, constants256):
        stats = eq.spectrum_stats(sphere256)
        tr = eq.run(
            sphere256,
            eq.default_initial_state(sphere256),
            params256,
            2000,
            eq.RandomStream(31),
        )
        v_seq = potential_from_logs(tr.log_f, tr.log_sigma, stats, constants256)
        dv = np.diff(v_seq)
        cap = eq.potential_step_cap(constants256, params256)
        assert np.max(dv) <= cap
        floor = eq.potential_step_floor(np.diff(tr.log_f), constants256, params256)
        assert np.all(dv >= floor - 1e-12)

    def test_on_mis_scaled_trace(self, sphere256, params256, constants256):
        stats = eq.spectrum_stats(sphere256)
        state = eq.default_initial_state(sphere256)
        big = eq.EsState(state.m, state.log_sigma + math.log(1e6))
        tr = eq.run(sphere256, big, params256, 3000, eq.RandomStream(37))
        v_seq = potential_from_logs(tr.log_f, tr.log_sigma, stats, constants256)
        dv = np.diff(v_seq)
        cap = eq.potential_step_cap(constants256, params256)
        assert np.max(dv) <= cap
        floor = eq.potential_step_floor(np.diff(tr.log_f), constants256, params256)
        assert np.all(dv >= floor - 1e-12)


class TestDriftMonteCarlo:
    @pytest.mark.parametrize(
        "regime",
        [eq.RegimeLabel.SMALL_STEP, eq.RegimeLabel.REASONABLE, eq.RegimeLabel.LARGE_STEP],
    )
    def test_conditional_drift_below_target(
        self, regime, sphere256, params256, constants256
    ):
        from esquad.experiments import _regime_states

        stats = eq.spectrum_stats(sphere256)
        state = _regime_states(
            sphere256, stats, constants256, eq.default_initial_state(sphere256).m
        )[regime]
        assert eq.classify(state, sphere256, constants256) is regime
        est, samples = eq.estimate_drift_V(
            sphere256, state, constants256, params256, 20000,
            eq.RandomStream(41),
        )
        target = eq.drift_target(regime, constants256, params256)
        assert est.mean <= target + 3 * est.std_error
        assert np.max(samples) <= eq.potential_step_cap(constants256, params256)
