import math
import os
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import esquad as eq
from esquad import es_core, experiments, montecarlo, stochastic
from esquad.es_core import BrokenProcessPool
from conftest import (TIE_SPECTRA, kill_worker_after, kill_worker_on, no_child_process,
                      read_trace_csv, run_python, run_under_blas_kernels, tie_start,
                      tie_variates)


class TestParams:
    def test_p_target_e_quarter(self):
        params = eq.EsParams(math.e, math.exp(-0.25))
        assert params.p_target == pytest.approx(0.2)

    def test_p_target_double_halve(self):
        assert eq.EsParams(2.0, 0.5).p_target == pytest.approx(0.5)

    def test_p_target_dimension_cancels(self):
        for d in (2, 10, 100, 4096):
            params = eq.EsParams(math.exp(1.0 / d), math.exp(-1.0 / (4 * d)))
            assert params.p_target == pytest.approx(0.2)

    def test_alpha_schedule_hits_target(self):
        for target in (0.2, 0.27, 0.4):
            assert eq.alpha_schedule(64, target).p_target == pytest.approx(target)

    def test_validation(self):
        with pytest.raises(ValueError):
            eq.EsParams(0.9, 0.5)
        with pytest.raises(ValueError):
            eq.EsParams(1.5, 1.0)

    @pytest.mark.parametrize("alpha_up, alpha_down", [(math.inf, 0.5), (1.5, 5e-324)],
                             ids=["alpha-up-inf", "ratio-overflows"])
    def test_ratio_must_be_finite(self, alpha_up, alpha_down):
        """Else log_up or log_ratio is infinite and p_target 0 or NaN."""
        with pytest.raises(ValueError, match="alpha_up / alpha_down must be finite"):
            eq.EsParams(alpha_up, alpha_down)


PARAMS = eq.EsParams(1.5, 0.8)
LN2 = math.log(2.0)

# one group, two groups (one of multiplicity 15), all distinct and rotated
REDUCED_CHAIN_CASES = pytest.mark.parametrize("lam, rotation_seed", [
    (eq.sphere(16), None), (eq.cigar(16, 100.0), None), (eq.ellipsoid(8, 10.0), 5),
], ids=["sphere16", "cigar100-16", "ellipsoid10-8-rotated"])


def both_chains(monkeypatch):
    """Yields twice: problems with one or two distinct eigenvalues run on the
    float chain, then on the group chain, its reference."""
    yield "float chain"
    monkeypatch.setattr(es_core, "_float_chain", es_core._group_chain)
    yield "group chain"


class TestStep:
    def setup_method(self):
        self.problem = eq.make_problem([1, 1], 0)
        self.state = eq.EsState(np.array([1.0, 0.0]), math.log(0.5))

    def test_accept_moves_and_grows_sigma(self):
        out = es_core.step(self.state, np.array([-1.0, 0.0]), self.problem, PARAMS)
        assert out.accepted
        assert np.array_equal(out.next.m, [0.5, 0.0])
        assert out.next.log_sigma == self.state.log_sigma + math.log(1.5)
        assert out.log_f_ratio == pytest.approx(math.log(0.125 / 0.5))

    def test_reject_keeps_m_and_shrinks_sigma(self):
        out = es_core.step(self.state, np.array([1.0, 0.0]), self.problem, PARAMS)
        assert not out.accepted
        assert np.array_equal(out.next.m, [1.0, 0.0])
        assert out.next.log_sigma == self.state.log_sigma + math.log(0.8)
        assert out.log_f_ratio == 0.0

    def test_tie_accepts(self):
        # x = m + 0.5 * (-4, 0) = (-1, 0): f(x) = f(m) = 0.5 exactly
        out = es_core.step(self.state, np.array([-4.0, 0.0]), self.problem, PARAMS)
        assert out.accepted
        assert np.array_equal(out.next.m, [-1.0, 0.0])

    def test_log_f_ratio_nonpositive(self):
        rng = np.random.default_rng(1)
        state = self.state
        for _ in range(200):
            out = es_core.step(state, rng.normal(size=2), self.problem, PARAMS)
            assert out.log_f_ratio <= 0.0
            state = out.next

    @pytest.mark.parametrize("log_sigma", [800.0, -800.0])
    def test_sigma_must_be_a_double_above_0(self, log_sigma):
        """exp overflows at 800; at -800 sigma is 0, which would make the
        step a tie, and accept it."""
        state = eq.EsState(self.state.m, log_sigma)
        with pytest.raises(eq.DomainError, match="overflows" if log_sigma > 0 else "not a"):
            es_core.step(state, np.array([1.0, 0.0]), self.problem, PARAMS)

    def test_refuses_a_start_that_run_refuses(self):
        """At m = (1, 0) sigma = e**-744 is subnormal in the start's frame:
        sigma (Hy)^T z underflows to 0 there, and this uphill step was a tie,
        accepted."""
        state = eq.EsState(self.state.m, -744.0)
        with pytest.raises(eq.DomainError, match="in the start's frame"):
            es_core.step(state, np.array([0.1, 0.0]), self.problem, PARAMS)
        with pytest.raises(eq.DomainError, match="in the start's frame"):
            eq.run(self.problem, state, PARAMS, 1, eq.RandomStream(0))

    def test_rejects_an_uphill_step_from_a_tiny_start(self):
        """At m = (2**-600, 0) the decrement underflows to 0 in raw
        coordinates, where this uphill step was a tie, accepted with a log f
        ratio of +0.098."""
        state = eq.EsState(np.array([2.0**-600, 0.0]), -601 * LN2)
        out = es_core.step(state, np.array([0.1, 0.0]), self.problem, PARAMS)
        assert not out.accepted and out.log_f_ratio == 0.0
        assert np.array_equal(out.next.m, state.m)


@pytest.mark.parametrize("k", [-1000, -600, -300, 300, 600, 900])
def test_step_decides_alike_at_every_scale(k):
    """(m - x*, sigma) scaled by 2**k give the same decision wherever the
    start is admitted.  Sigma passes through log, so the log f ratios agree
    to 1e-9 relative, or 1e-12 absolute: where the raw core underflows the
    ratio is a difference of two log cores of size up to 1 400.  The last
    200 starts have sigma above 2**512 in the start's frame, where sigma**2
    would overflow: every other one of them steps most of the way to x*,
    accepted, and the rest, with z ~ N(0, I), are rejected."""
    rng = np.random.default_rng(32)
    outcomes = [], []
    for case in range(600):
        d = int(rng.integers(1, 9))
        lam = np.exp(rng.uniform(0.0, math.log(100.0), size=d))
        p = eq.make_problem(lam, 0, rotation_seed=case if case % 2 else None)
        huge = case >= 400
        y, z = rng.normal(size=d), rng.normal(size=d)
        log_sigma = rng.uniform(356.0, 700.0) if huge else rng.uniform(-8.0, 2.0)
        if huge and case % 2:
            z = (0.1 * z - 0.9 * y) * math.exp(-log_sigma)
        base = es_core.step(eq.EsState(y, log_sigma), z, p, PARAMS)
        try:
            scaled = es_core.step(eq.EsState(y * 2.0**k, log_sigma + k * LN2), z, p, PARAMS)
        except eq.DomainError:
            continue
        assert scaled.accepted == base.accepted
        assert scaled.log_f_ratio == pytest.approx(base.log_f_ratio, rel=1e-9, abs=1e-12)
        assert base.accepted == bool(case % 2) or not huge
        outcomes[huge].append(base.accepted)
    small, huge = outcomes
    assert len(small) == 400 and 0 < sum(small) < 400
    assert len(huge) == 200 or k > 0


class TestStepSize:
    """``step_size``, the one rule for a step size: exp of log sigma, a
    finite double > 0."""

    def test_largest_and_smallest_logs_pass(self):
        assert es_core.step_size(709.78) == math.exp(709.78) < math.inf
        assert es_core.step_size(-745.0) == math.exp(-745.0) > 0.0

    def test_overflow_raises(self):
        with pytest.raises(eq.DomainError, match="overflows"):
            es_core.step_size(709.79)

    @pytest.mark.parametrize("log_sigma", [-745.2, math.nan, math.inf, -math.inf])
    def test_no_double_above_0_raises(self, log_sigma):
        with pytest.raises(eq.DomainError, match="not a finite double > 0"):
            es_core.step_size(log_sigma)


class TestRun:
    def test_budget_zero_initial_row_only(self):
        p = eq.make_problem(eq.sphere(4), 0)
        tr = eq.run(p, eq.EsState(np.ones(4), 0.0), PARAMS, 0, eq.RandomStream(0))
        assert len(tr) == 1
        assert tr.accepted[0] == 0

    @pytest.mark.parametrize("log_sigma", [
        800.0, pytest.param(1022 * LN2 + 0.01, id="above-the-range"),
        pytest.param(-1021 * LN2 - 0.01, id="below-the-range"), -800.0])
    def test_extreme_log_sigma_raises(self, log_sigma):
        """From m = (1, ..., 1) the start's frame halves every length, so log
        sigma there is log sigma - ln 2, and these leave [log 2**-1022, log
        2**1021) there, two of them by 0.01.  Else exp overflows at 800, just
        above the range the first renormalization leaves r_max subnormal,
        just below it sigma is subnormal there, and at -800 sigma is 0 and
        every step a tie that is accepted."""
        p = eq.make_problem(eq.sphere(8), 0)
        with pytest.raises(eq.DomainError, match="in the start's frame"):
            eq.run(p, eq.EsState(np.ones(8), log_sigma), PARAMS, 1000, eq.RandomStream(0))

    def test_log_sigma_inside_the_range_runs(self):
        p = eq.make_problem(eq.sphere(8), 0)
        for log_sigma in (350.0, -699.0, 699.0, -700.0, 1022 * LN2 - 0.01, -1021 * LN2 + 0.01):
            tr = eq.run(p, eq.EsState(np.ones(8), log_sigma), PARAMS, 1000,
                        eq.RandomStream(0))
            assert not tr.hit_zero
            assert len(tr) == 1001 and np.all(np.isfinite(tr.log_f))

    @pytest.mark.parametrize("log_sigma", [500.0, 699.0])
    def test_huge_start_runs_its_budget(self, log_sigma):
        """A step size far above the distance to x* shrinks back, and the
        cores that underflow in the renormalised frame on the way end no run."""
        p = eq.make_problem(eq.sphere(8), 0)
        tr = eq.run(p, eq.EsState(np.ones(8), log_sigma), PARAMS, 3000, eq.RandomStream(0))
        assert len(tr) == 3001 and not tr.hit_zero
        assert np.all(np.diff(tr.log_f) <= 0.0)

    @pytest.mark.parametrize("budget", [True, 2.0, -1])
    def test_budget_must_be_a_nonnegative_int(self, budget):
        # True once ran one step and wrote "budget": true into the metadata
        p = eq.make_problem(eq.sphere(4), 0)
        with pytest.raises(ValueError, match="budget must be an integer >= 0"):
            eq.run(p, eq.EsState(np.ones(4), 0.0), PARAMS, budget, eq.RandomStream(0))

    def test_subnormal_start_enters_its_frame(self):
        """A centred start of 1e-310 enters its frame times 2**1029, where a
        float power once overflowed."""
        p = eq.make_problem(eq.sphere(2), 0)
        state = eq.EsState(np.array([1e-310, 0.0]), -715.5)  # sigma about 0.1 there
        tr = eq.run(p, state, PARAMS, 100, eq.RandomStream(0))
        assert len(tr) == 101 and tr.accept_count() > 0
        assert np.all(np.diff(tr.log_f) <= 0.0)
        assert es_core.step(state, np.array([-1.0, 0.0]), p, PARAMS).accepted

    def test_degenerate_start(self):
        p = eq.make_problem(eq.sphere(3), 0)
        with pytest.raises(eq.DegenerateState):
            eq.run(p, eq.EsState(np.zeros(3), 0.0), PARAMS, 10, eq.RandomStream(0))
        with pytest.raises(eq.DegenerateState):
            es_core.step(eq.EsState(np.zeros(3), 0.0), np.ones(3), p, PARAMS)

    @pytest.mark.parametrize("seed", [109, 193])
    def test_kept_rows_filling_whole_batches(self, seed):
        # row 0 and 255 accepted rows fill one batch of 256 log-norms
        # exactly, which left the group chain a last batch of none
        p = eq.make_problem(eq.ellipsoid(8, 100.0), 0)
        tr = eq.run(p, eq.default_initial_state(p), eq.alpha_schedule(8, 0.2), 1500,
                    eq.RandomStream(seed))
        assert len(tr) == 1501 and tr.accept_count() + 1 == es_core._BLOCK
        assert np.all(np.isfinite(tr.log_norm))

    @pytest.mark.parametrize("length", [1, 3, 5])
    def test_start_of_wrong_length(self, length):
        # a start of length 1 once broadcast to (1, 1, 1, 1) and ran; a z of
        # length 3 once raised numpy's ValueError in ``step``
        p = eq.make_problem(eq.sphere(4), 0)
        state = eq.EsState(np.ones(length), 0.0)
        with pytest.raises(eq.DimensionMismatch):
            es_core.step(eq.EsState(np.ones(4), 0.0), np.ones(length), p, PARAMS)
        with pytest.raises(eq.DimensionMismatch):
            eq.run(p, state, PARAMS, 10, eq.RandomStream(0))
        with pytest.raises(eq.DimensionMismatch):
            es_core.step(state, np.ones(4), p, PARAMS)
        with pytest.raises(eq.DimensionMismatch):
            experiments.default_sigma0(p, np.ones(length))
        with pytest.raises(eq.DimensionMismatch) as failure:
            es_core.run_many([(p, state, PARAMS, 10, eq.RandomStream(0))])
        assert failure.value.job_index == 0

    @REDUCED_CHAIN_CASES
    def test_matches_step_loop_in_law(self, lam, rotation_seed):
        # run samples the reduced chain and lifts it back to points; a loop of
        # step on full-dimension draws is the reference.  Per trial: the
        # acceptance rate, the log-f slope a_hat and the mean cosine between
        # the points before and after an accepted step, all after burn-in;
        # their means agree within 3 combined SE.
        p = eq.make_problem(lam, 0, rotation_seed=rotation_seed)
        params = eq.alpha_schedule(p.d, 0.2)
        state0 = eq.default_initial_state(p)
        trials, budget, burn_in = 60, 1000, 200

        def reference(stream):
            state, log_f, acc, m = state0, [0.0], [], [state0.m]
            for _ in range(budget):
                out = es_core.step(state, stochastic.normal_vector(stream, p.d), p, params)
                state = out.next
                log_f.append(log_f[-1] + out.log_f_ratio)
                acc.append(out.accepted)
                m.append(state.m)
            return np.array(log_f), np.array(acc), np.array(m)

        def summary(log_f, acc, m):
            slope = -(log_f[budget] - log_f[burn_in]) / (2.0 * (budget - burn_in))
            moved = burn_in + np.flatnonzero(acc[burn_in:])
            before, after = m[moved], m[moved + 1]
            cos = np.einsum("ij,ij->i", before, after) / (
                np.linalg.norm(before, axis=1) * np.linalg.norm(after, axis=1))
            return float(np.mean(acc[burn_in:])), slope, float(np.mean(cos))

        got, ref = [], []
        for i in range(trials):
            tr = eq.run(p, state0, params, budget, eq.RandomStream(41, (i,)),
                        record_m=True)
            got.append(summary(tr.log_f, tr.accepted[1:], tr.m_centered))
            ref.append(summary(*reference(eq.RandomStream(42, (i,)))))
        got, ref = np.array(got), np.array(ref)
        se = np.hypot(got.std(axis=0, ddof=1), ref.std(axis=0, ddof=1)) / math.sqrt(trials)
        assert np.all(np.abs(got.mean(axis=0) - ref.mean(axis=0)) < 3.0 * se)

    @REDUCED_CHAIN_CASES
    def test_record_m_changes_no_other_column(self, lam, rotation_seed):
        p = eq.make_problem(lam, 0, rotation_seed=rotation_seed)
        state0 = eq.default_initial_state(p)
        params = eq.alpha_schedule(p.d, 0.2)
        plain = eq.run(p, state0, params, 2000, eq.RandomStream(9))
        lifted = eq.run(p, state0, params, 2000, eq.RandomStream(9), record_m=True)
        assert plain.m_centered is None and lifted.m_centered.shape == (2001, p.d)
        for column in ("log_f", "log_sigma", "accepted", "log_norm"):
            assert np.array_equal(getattr(plain, column), getattr(lifted, column))

    def test_successive_runs_share_no_chi_or_lift_words(self, monkeypatch):
        """Two runs on one stream key fresh sources: no chi_k and no lift
        variate of the first run recurs in the second."""
        p = eq.make_problem(eq.cigar(16, 100.0), 0)
        draws = {"chi": [], "lift": []}

        def recording_chi(*args):
            draws["chi"][-1].append(stochastic.chi_square_matrix(*args))
            return draws["chi"][-1][-1]

        def recording_normals(*args):
            draws["lift"][-1].append(stochastic.normal_vector(*args))
            return draws["lift"][-1][-1]

        monkeypatch.setattr(es_core, "chi_square_matrix", recording_chi)
        monkeypatch.setattr(es_core, "normal_vector", recording_normals)
        stream = eq.RandomStream(31)
        for _ in range(2):
            draws["chi"].append([])
            draws["lift"].append([])
            eq.run(p, eq.default_initial_state(p), eq.alpha_schedule(16), 300,
                   stream, record_m=True)
        for kind in ("chi", "lift"):
            first, second = (np.concatenate(parts, axis=None) for parts in draws[kind])
            assert first.size and second.size
            assert np.intersect1d(first, second).size == 0, kind

    def test_sigma_bookkeeping_closed_form(self):
        p = eq.make_problem(eq.sphere(8), 0)
        params = eq.alpha_schedule(8, 0.2)
        tr = eq.run(
            p, eq.EsState(np.ones(8), 0.0), params, 5000, eq.RandomStream(5)
        )
        a = np.cumsum(tr.accepted)
        expected = a * params.log_up + (tr.t - a) * params.log_down
        assert np.max(np.abs(expected - tr.log_sigma)) < 1e-9

    def test_log_f_monotone(self):
        p = eq.make_problem(eq.ellipsoid(8, 10), 0)
        tr = eq.run(
            p, eq.EsState(np.ones(8), 0.0), eq.alpha_schedule(8), 3000,
            eq.RandomStream(6),
        )
        assert np.all(np.diff(tr.log_f) <= 0.0)

    def test_deep_run_tracks_log_f_past_underflow(self):
        # log f ends far below log(double min) ~ -745 and stays finite
        p = eq.make_problem(eq.sphere(4), 0)
        tr = eq.run(
            p, eq.EsState(np.ones(4), math.log(0.5)), eq.alpha_schedule(4),
            40000, eq.RandomStream(13),
        )
        assert np.isfinite(tr.log_f[-1])
        assert tr.log_f[-1] < -1500.0
        assert np.all(np.diff(tr.log_f) <= 0.0)
        a = np.cumsum(tr.accepted)
        params = eq.alpha_schedule(4)
        expected = math.log(0.5) + a * params.log_up + (tr.t - a) * params.log_down
        assert np.max(np.abs(expected - tr.log_sigma)) < 1e-8
        # on the sphere the core is |y|^2 / 2
        assert np.max(np.abs(tr.log_f - (math.log(0.5) + 2.0 * tr.log_norm))) <= 1e-9

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_start_scale(self, monkeypatch, scale):
        # the squared group norms of the start would under- or overflow
        state0 = eq.EsState(np.full(4, scale), math.log(0.1 * scale))
        for chain in both_chains(monkeypatch):
            for lam, unit_core in ((eq.cigar(4, 10.0), 15.5), (eq.sphere(4), 2.0)):
                p = eq.make_problem(lam, 0)
                tr = eq.run(p, state0, eq.alpha_schedule(4), 500, eq.RandomStream(12))
                assert tr.log_f[0] == pytest.approx(
                    math.log(unit_core) + 2.0 * math.log(scale), rel=1e-14), chain
                assert tr.accept_count() > 50, chain
                assert np.all(np.isfinite(tr.log_f)) and np.all(np.diff(tr.log_f) <= 0.0), chain

    def test_transform_invariance_bit_exact(self):
        p_id = eq.make_problem(eq.ellipsoid(8, 10), 0)
        state0 = eq.EsState(np.ones(8), math.log(0.2))
        params = eq.alpha_schedule(8)
        base = eq.run(p_id, state0, params, 1000, eq.RandomStream(3), record_m=True)
        for tag in (eq.SQRT, eq.LOG1P, eq.CUBE):
            p_t = eq.make_problem(eq.ellipsoid(8, 10), 0, transform=tag)
            tr = eq.run(p_t, state0, params, 1000, eq.RandomStream(3), record_m=True)
            assert np.array_equal(base.m_centered, tr.m_centered)
            assert np.array_equal(base.log_sigma, tr.log_sigma)
            assert np.array_equal(base.log_f, tr.log_f)

    def test_translation_invariance_bit_exact(self):
        # integer offsets keep m0 + c exactly representable
        shift = np.arange(1.0, 9.0)
        p0 = eq.make_problem(eq.sphere(8), 0)
        p1 = eq.make_problem(eq.sphere(8), shift)
        m0 = np.ones(8) * 0.75
        base = eq.run(
            p0, eq.EsState(m0, math.log(0.2)), PARAMS, 1000, eq.RandomStream(4),
            record_m=True,
        )
        moved = eq.run(
            p1, eq.EsState(m0 + shift, math.log(0.2)), PARAMS, 1000,
            eq.RandomStream(4), record_m=True,
        )
        assert np.array_equal(base.m_centered, moved.m_centered)
        assert np.array_equal(base.log_sigma, moved.log_sigma)

    def test_rotation_equivariance_in_law(self):
        # acceptance rates on rotated vs axis-aligned ellipsoid agree within
        # 3 combined standard errors (block SEs, 20 blocks of dependent steps)
        d, steps = 16, 10000
        params = eq.alpha_schedule(d, 0.2)
        rates = []
        ses = []
        for seed_rot in (None, 123):
            p = eq.make_problem(eq.ellipsoid(d, 10), 0, rotation_seed=seed_rot)
            tr = eq.run(
                p, eq.default_initial_state(p), params, steps, eq.RandomStream(21)
            )
            acc = tr.accepted[1:].astype(float)
            blocks = acc.reshape(20, -1).mean(axis=1)
            rates.append(float(acc.mean()))
            ses.append(float(np.std(blocks, ddof=1) / math.sqrt(len(blocks))))
        assert abs(rates[0] - rates[1]) < 3.0 * math.hypot(ses[0], ses[1])

    def test_early_halt_on_exact_zero(self, monkeypatch):
        p = eq.make_problem([1.0, 1.0], 0)
        state0 = eq.EsState(np.array([1.0, 0.0]), 0.0)

        def fake_normal_matrix(stream, rows, groups):
            xi = np.full((rows, groups), 0.1)
            xi[0] = -1.0  # with chi = 0, lands exactly on the optimum at sigma = 1
            return xi

        def fake_chi_square_matrix(source, rows, dof):
            chi = np.full((rows, len(dof)), 0.1)
            chi[0] = 0.0
            return chi

        monkeypatch.setattr(es_core, "normal_matrix", fake_normal_matrix)
        monkeypatch.setattr(es_core, "chi_square_matrix", fake_chi_square_matrix)
        for chain in both_chains(monkeypatch):
            tr = eq.run(p, state0, PARAMS, 50, eq.RandomStream(0))
            assert tr.hit_zero, chain
            assert len(tr) == 2, chain
            assert tr.log_f[-1] == -math.inf, chain
            assert tr.metadata["hit_zero"] is True, chain

    def test_large_progress_takes_log_f_from_new_point(self, monkeypatch):
        # delta/core is exactly -1 here, so log1p(delta/core) would fail
        p = eq.make_problem([1.0, 1.0], 0)
        state0 = eq.EsState(np.array([1.0, 2.0**-60]), 0.0)

        def fake_normal_matrix(stream, rows, groups):
            xi = np.full((rows, groups), 0.1)
            xi[0] = -1.0
            return xi

        def fake_chi_square_matrix(source, rows, dof):
            chi = np.full((rows, len(dof)), 0.01)
            chi[0] = 2.0**-120  # with xi = -1, lands at norm 2**-60 at sigma = 1
            return chi

        monkeypatch.setattr(es_core, "normal_matrix", fake_normal_matrix)
        monkeypatch.setattr(es_core, "chi_square_matrix", fake_chi_square_matrix)
        for chain in both_chains(monkeypatch):
            tr = eq.run(p, state0, PARAMS, 5, eq.RandomStream(0))
            assert not tr.hit_zero, chain
            assert len(tr) == 6, chain
            assert tr.accepted[1] == 1, chain
            assert tr.log_f[1] == pytest.approx(math.log(0.5) - 120 * math.log(2.0),
                                                rel=1e-15), chain

    def test_log_f_tracks_core_of_recorded_points(self):
        p = eq.make_problem(eq.ellipsoid(16, 100), 0, rotation_seed=5)
        tr = eq.run(p, eq.default_initial_state(p), eq.alpha_schedule(16), 5000,
                    eq.RandomStream(8), record_m=True)
        exact = np.array([p.log_core_centered(m) for m in tr.m_centered])
        assert tr.accept_count() > 500
        assert np.max(np.abs(tr.log_f - exact)) <= 1e-9


def _trace_bytes(tr):
    """Every column of a trace as bytes, and its hit_zero flag."""
    columns = ("log_f", "log_sigma", "accepted", "log_norm", "m_centered")
    return [getattr(tr, c).tobytes() for c in columns if getattr(tr, c) is not None] + [
        tr.hit_zero]


class TestUnderflowedCore:
    """A huge alpha_up makes the renormalization after an accepted step
    divide r by about sigma_hat, so that the core underflows to 0 in the
    renormalised frame while every group norm stays > 0: the run goes on."""

    @pytest.mark.parametrize("alpha_up", [1e200, 1e300])
    @pytest.mark.parametrize("lam", [eq.sphere(8), eq.cigar(8, 100.0), eq.ellipsoid(8, 100.0)],
                             ids=["sphere", "cigar100", "ellipsoid100"])
    def test_runs_its_whole_budget(self, monkeypatch, lam, alpha_up):
        # these runs once stopped after 1 990-1 997 steps, flagged hit_zero
        p = eq.make_problem(lam, 0)
        job = (p, eq.default_initial_state(p), eq.EsParams(alpha_up, 0.5), 2000)
        traces = [eq.run(*job, eq.RandomStream(0), record_m) for record_m in (False, True)]
        for trace in traces:
            assert len(trace) == 2001 and not trace.hit_zero
            assert np.all(np.diff(trace.log_f) <= 0.0)
        if p.eigen_groups().eigenvalues.size <= 2:
            monkeypatch.setattr(es_core, "_float_chain", es_core._group_chain)
            for record_m, trace in zip((False, True), traces):
                group = eq.run(*job, eq.RandomStream(0), record_m)
                assert _trace_bytes(group) == _trace_bytes(trace)


class TestTies:
    """A step whose decrement is exactly 0 is accepted, in both chains."""

    @pytest.mark.parametrize("lam", TIE_SPECTRA, ids=["G1", "G2", "G3"])
    def test_a_tie_is_accepted(self, monkeypatch, lam):
        p = eq.make_problem(lam, 0)
        state0 = eq.EsState(tie_start(lam), 0.0)
        tie_variates(monkeypatch, -1.0)
        for chain in both_chains(monkeypatch):
            tr = eq.run(p, state0, PARAMS, 1, eq.RandomStream(0))
            assert tr.accepted.tolist() == [0, 1], chain
            assert tr.log_f[1] == tr.log_f[0], chain  # the step lands at the same core
            assert tr.log_sigma[1] == PARAMS.log_up, chain


def _exact_core(lam, v):
    return sum(Fraction(l) * Fraction(x) ** 2 for l, x in zip(lam, v)) / 2


def _coordinates(bound, d):
    # no magnitudes whose squares would underflow, as double range demands
    x = st.floats(-bound, bound).filter(lambda v: v == 0.0 or abs(v) > 1e-30)
    return st.lists(x, min_size=d, max_size=d)


class TestOneGroupChain:
    """On one distinct eigenvalue ``run`` takes the float chain, which must
    equal the group chain bit for bit in every column."""

    @pytest.mark.parametrize("d, rotation_seed", [(1, None), (2, None), (16, None), (16, 3),
                                                  (256, None)])
    @pytest.mark.parametrize("record_m", [False, True])
    def test_equals_group_chain_bit_for_bit(self, monkeypatch, d, rotation_seed, record_m):
        # 5000 steps cross 20 blocks of 256 rows and 3 of up to 2048; at
        # d = 1 and 2 the norm falls below 2**-400, through renormalizations
        # by 2**100 or more
        p = eq.make_problem(eq.sphere(d), 0, rotation_seed=rotation_seed)
        params = eq.alpha_schedule(d, 0.2)
        state0 = eq.default_initial_state(p)
        rows = []

        def recording_normals(stream, n, groups):
            rows.append(n)
            return stochastic.normal_matrix(stream, n, groups)

        monkeypatch.setattr(es_core, "normal_matrix", recording_normals)
        one = eq.run(p, state0, params, 5000, eq.RandomStream(d), record_m=record_m)
        assert rows == [2048, 2048, 904]
        monkeypatch.setattr(es_core, "_float_chain", es_core._group_chain)
        group = eq.run(p, state0, params, 5000, eq.RandomStream(d), record_m=record_m)
        assert rows[3:] == [256] * 20
        assert one.accept_count() > 500
        assert _same_trace(one, group)
        if d < 16:
            assert one.log_norm[-1] < -400.0 * math.log(2.0)


def _two_values(d, _):
    return [4.0] * (d // 2) + [0.5] * (d - d // 2)


class TestTwoGroupChain:
    """On two distinct eigenvalues ``run`` takes the float chain too, which
    must equal the group chain bit for bit in every column."""

    @pytest.mark.parametrize("spectrum", [eq.cigar, eq.discus, _two_values],
                             ids=["cigar", "discus", "two-values"])
    @pytest.mark.parametrize("d, rotation_seed", [(2, None), (16, None), (16, 3),
                                                  (64, None), (64, 3)])
    @pytest.mark.parametrize("record_m", [False, True])
    def test_equals_group_chain_bit_for_bit(self, monkeypatch, spectrum, d, rotation_seed,
                                            record_m):
        # 6000 steps cross 24 blocks of 256 rows and 3 of up to 2048; at
        # d = 2 with eigenvalues 4 and 0.5 the norm falls below 2**-400,
        # through renormalizations by 2**100 or more
        p = eq.make_problem(spectrum(d, 100.0), 0, rotation_seed=rotation_seed)
        assert p.eigen_groups().eigenvalues.size == 2
        params = eq.alpha_schedule(d, 0.2)
        state0 = eq.default_initial_state(p)
        rows = []

        def recording_normals(stream, n, groups):
            rows.append(n)
            return stochastic.normal_matrix(stream, n, groups)

        monkeypatch.setattr(es_core, "normal_matrix", recording_normals)
        two = eq.run(p, state0, params, 6000, eq.RandomStream(d), record_m=record_m)
        assert rows == [2048, 2048, 1904]
        monkeypatch.setattr(es_core, "_float_chain", es_core._group_chain)
        group = eq.run(p, state0, params, 6000, eq.RandomStream(d), record_m=record_m)
        assert rows[3:] == [256] * 24
        assert two.accept_count() > 500
        assert _same_trace(two, group)
        if d == 2 and spectrum is _two_values:
            assert two.log_norm[-1] < -400.0 * math.log(2.0)


# with three values every group of d >= 6 has a chi part, as no ellipsoid's has
SPECTRUM_FAMILIES = {"sphere": lambda d, xi: eq.sphere(d), "cigar": eq.cigar,
                     "discus": eq.discus, "ellipsoid": eq.ellipsoid, "two-values": _two_values,
                     "three-values": lambda d, xi: [xi ** (i % 3 / 2) for i in range(d)]}


@st.composite
def _drawn_jobs(draw):
    """A spectrum, a rotation seed or None, a start (None for the default one,
    else a point and log sigma), multipliers with a finite ratio, a budget,
    a seed and ``record_m``."""
    d = draw(st.sampled_from(range(1, 13)))  # uniform, where integers() favours small d
    lam = SPECTRUM_FAMILIES[draw(st.sampled_from(sorted(SPECTRUM_FAMILIES)))](
        d, draw(st.floats(1.5, 1e6)))
    rotation_seed = draw(st.none() | st.integers(0, 2**31))
    start = draw(st.none() | st.tuples(
        st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d), st.integers(-150, 150),
        st.floats(-10.0, 5.0) | st.floats(-800.0, 800.0)))
    alpha_up = draw(st.floats(1.0001, 10.0) | st.sampled_from([1e50, 1e200, 1e300, 1.7e308]))
    alpha_down = draw(st.floats(1e-6, 0.9999))
    assume(math.isfinite(alpha_up / alpha_down))
    return (lam, rotation_seed, start, alpha_up, alpha_down, draw(st.integers(0, 400)),
            draw(st.integers(0, 2**32 - 1)), draw(st.booleans()))


# the time budget: under 5 s for the whole test (about 2 s on a 2-core host)
@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example((eq.sphere(8), None, None, 1e200, 0.5, 2000, 0, False))  # once a false hit_zero
@given(_drawn_jobs())
def test_run_holds_its_invariants(cpus, monkeypatch, drawn):
    """``run`` returns a trace or raises DomainError, NumericalFailure or
    ValueError, never a numpy AxisError, OverflowError, ZeroDivisionError or
    IndexError.  A trace has budget + 1 rows unless it hit x*, which it did
    exactly when its last log-norm is -inf; log f never rises; each step of
    log sigma is log_up on an accepted row and log_down on any other; and
    log f - log 1/2 - 2 log-norm lies in [log L, log U].  With G <= 2 the
    group chain gives the same bytes, and so does ``run_many`` on two CPUs.
    Where ``step_size`` takes the start's log sigma, ``step`` and the Monte
    Carlo sampler refuse the start exactly when ``run`` does."""
    lam, rotation_seed, start, alpha_up, alpha_down, budget, seed, record_m = drawn
    job = None
    try:
        p = eq.make_problem(lam, 0, rotation_seed=rotation_seed)
        if start is None:
            state0 = eq.default_initial_state(p)
        else:
            coordinates, exponent, log_sigma = start
            m = np.array(coordinates) * 10.0**exponent
            assume(np.any(m))
            state0 = eq.EsState(m, exponent * math.log(10.0) + log_sigma)
        params = eq.EsParams(alpha_up, alpha_down)
        job = (p, state0, params, budget)
        trace = eq.run(*job, eq.RandomStream(seed), record_m)
    except (eq.DomainError, eq.NumericalFailure, ValueError) as exc:
        assert not isinstance(exc, np.exceptions.AxisError)
        if job is not None:
            _assert_step_refuses_as_run_does(job, isinstance(exc, eq.DomainError))
        return
    _assert_step_refuses_as_run_does(job, False)
    assert len(trace) == budget + 1 or (trace.hit_zero and len(trace) < budget + 1)
    assert trace.hit_zero == (trace.log_norm[-1] == -math.inf)
    assert np.all(np.diff(trace.log_f) <= 0.0)
    steps = np.where(trace.accepted[1:] == 1, params.log_up, params.log_down)
    assert np.array_equal(trace.log_sigma[1:], trace.log_sigma[:-1] + steps)
    finite = np.isfinite(trace.log_norm)
    spread = trace.log_f[finite] - math.log(0.5) - 2.0 * trace.log_norm[finite]
    slack = 1e-9 * (1.0 + np.abs(trace.log_f[finite]))
    assert np.all(spread >= math.log(p.spectrum.eigenvalues[-1]) - slack)
    assert np.all(spread <= math.log(p.spectrum.eigenvalues[0]) + slack)
    want = _trace_bytes(trace)
    if p.eigen_groups().eigenvalues.size <= 2:
        with monkeypatch.context() as patch:
            patch.setattr(es_core, "_float_chain", es_core._group_chain)
            assert _trace_bytes(eq.run(*job, eq.RandomStream(seed), record_m)) == want
    cpus(2)
    pair = es_core.run_many([(*job, eq.RandomStream(seed), record_m) for _ in range(2)])
    assert [_trace_bytes(t) for t in pair] == [want, want]


def _assert_step_refuses_as_run_does(job, run_refused):
    """Where ``step_size`` takes the start's log sigma, ``step`` with z = 0
    and the Monte Carlo sampler raise DomainError exactly when ``run`` does."""
    p, state0, params, _ = job
    try:
        sigma = es_core.step_size(state0.log_sigma)
    except eq.DomainError:
        return
    for call in (lambda: es_core.step(state0, np.zeros(p.d), p, params),
                 lambda: montecarlo.estimate_success_prob(p, state0.m, sigma, 100,
                                                          eq.RandomStream(0))):
        refused = False
        try:
            call()
        except eq.DomainError:
            refused = True
        assert refused == run_refused


def _block_size_outputs():
    """The bytes of traces, with and without ``record_m``, on a G = 1, a
    rotated G = 2 and a G = 8 problem, and one value of each Monte Carlo
    estimator."""
    problems = [eq.make_problem(eq.sphere(16), 0),
                eq.make_problem(eq.cigar(16, 100.0), 0, rotation_seed=3),
                eq.make_problem(eq.ellipsoid(8, 100.0), 0)]
    out = []
    for p in problems:
        for record_m in (False, True):
            tr = eq.run(p, eq.default_initial_state(p), eq.alpha_schedule(p.d, 0.2), 600,
                        eq.RandomStream(109), record_m=record_m)
            out += [getattr(tr, c).tobytes() for c in ("log_f", "log_sigma", "accepted",
                                                       "log_norm", "m_centered")
                    if getattr(tr, c) is not None]
    p = problems[1]
    m, sigma = eq.default_initial_state(p).m, 0.05
    for estimate in (montecarlo.estimate_success_prob, montecarlo.estimate_log_progress,
                     montecarlo.estimate_exp_abs):
        out.append(estimate(p, m, sigma, 1000, eq.RandomStream(5)).mean.hex())
    p = eq.make_problem(eq.sphere(256), 0)
    params = eq.alpha_schedule(256, 0.4)
    consts = eq.constants(eq.spectrum_stats(p), params)
    est, _ = montecarlo.estimate_drift_V(p, eq.default_initial_state(p), consts, params,
                                         1000, eq.RandomStream(6))
    out.append(est.mean.hex())
    return out


@pytest.fixture(scope="module")
def default_block_outputs():
    return _block_size_outputs()


@pytest.mark.parametrize("size", [1, 2, 3, 7])
def test_block_sizes_move_no_byte(monkeypatch, default_block_outputs, size):
    """Variate blocks, dot-product windows, lift blocks and Monte Carlo
    chunks of a few rows, crossing a boundary at nearly every step, give
    the bytes of the default sizes."""
    for name in ("_BLOCK", "_WINDOW", "_FLOAT_BLOCK", "_LIFT_BLOCK"):
        monkeypatch.setattr(es_core, name, size)
    monkeypatch.setattr(montecarlo, "_chunk_rows", lambda width: size)
    assert _block_size_outputs() == default_block_outputs


_KERNEL_TRACES = """
import hashlib
import numpy as np
import esquad as eq
for lam in (eq.cigar(64, 100.0), eq.ellipsoid(64, 100.0)):
    p = eq.make_problem(lam, 0)
    m0 = np.random.default_rng(11).normal(size=64)  # a start with unequal coordinates
    state0 = eq.EsState(m0, eq.default_initial_state(p).log_sigma)
    tr = eq.run(p, state0, eq.alpha_schedule(64), 20000, eq.RandomStream(3), record_m=True)
    h = hashlib.sha256()
    for column in (tr.log_f, tr.log_sigma, tr.accepted, tr.log_norm, tr.m_centered):
        h.update(column.tobytes())
    print(p.eigen_groups().eigenvalues.size, h.hexdigest())
for d in (10, 1023):  # the default sigma0 of sums of d equal squares
    print(d, repr(eq.default_initial_state(eq.make_problem(eq.sphere(d), 0)).log_sigma))
"""


def test_unrotated_trace_bytes_do_not_depend_on_the_blas_kernel():
    # OpenBLAS picks its dot kernel per CPU at run time; no BLAS reduction
    # may reach a trace
    outputs = run_under_blas_kernels(_KERNEL_TRACES)
    assert [line.split()[0] for line in outputs[None].splitlines()] == ["2", "64", "10", "1023"]
    assert len(set(outputs.values())) == 1, outputs


class TestDecrementForm:
    @settings(max_examples=1000, deadline=None)
    @given(
        st.integers(1, 6).flatmap(lambda d: st.tuples(
            st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d),
            _coordinates(10.0, d),
            _coordinates(5.0, d),
        )),
        st.floats(1e-9, 1.0),
    )
    def test_decision_matches_exact_core_change(self, vectors, sigma):
        lam, u, w = vectors
        assume(any(u))  # a start at the optimum is rejected
        lam = sorted(lam, reverse=True)  # the order the problem stores them in
        p = eq.make_problem(lam, 0)
        state = eq.EsState(np.array(u), math.log(sigma))
        out = es_core.step(state, np.array(w), p, PARAMS)
        cand = np.array(u) + math.exp(state.log_sigma) * np.array(w)
        core = _exact_core(lam, u)
        exact = _exact_core(lam, cand) - core
        if abs(exact) > Fraction(1e-9) * core:
            assert out.accepted == (exact <= 0)


@pytest.mark.parametrize("lam", [eq.sphere(8), [1.0, 2.0, 3.0, 4.0], eq.cigar(8, 100.0)],
                         ids=["all-chi", "no-chi", "some-chi"])
def test_draw_block_equals_its_scattered_form(lam):
    """The chi matrix is the chi-square columns scattered into zeros, each
    drawn with an array of shapes, whether every group, none or some have
    a chi part."""
    groups = eq.make_problem(lam, 0).eigen_groups()
    xi, chi, q = es_core.draw_block(eq.RandomStream(4), stochastic.chi_square_source(
        eq.RandomStream(5)), 300, groups)
    has_chi = groups.counts > 1
    xi_ref = stochastic.normal_matrix(eq.RandomStream(4), 300, groups.counts.size)
    chi_ref = np.zeros_like(xi_ref)
    chi_ref[:, has_chi] = 2.0 * stochastic.chi_square_source(eq.RandomStream(5)).standard_gamma(
        0.5 * (groups.counts[has_chi] - 1), size=(300, int(has_chi.sum())))
    q_ref = 0.5 * np.einsum("ij,j->i", xi_ref * xi_ref + chi_ref, groups.eigenvalues)
    for got, want in ((xi, xi_ref), (chi, chi_ref), (q, q_ref)):
        assert got.tobytes() == want.tobytes()


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        p = eq.make_problem(eq.sphere(4), 0)
        tr = eq.run(
            p, eq.EsState(np.ones(4), 0.0), PARAMS, 100, eq.RandomStream(2)
        )
        path = tmp_path / "trace.csv"
        tr.write_csv(path)
        back = read_trace_csv(path)
        assert np.array_equal(back["t"], tr.t)
        assert np.array_equal(back["log_f"], tr.log_f)
        assert np.array_equal(back["log_sigma"], tr.log_sigma)
        assert np.array_equal(back["accepted"], tr.accepted)
        meta = (tmp_path / "trace.csv.meta.json").read_text()
        assert '"generator_id"' in meta and '"seed"' in meta

    def test_csv_layout(self, tmp_path):
        p = eq.make_problem(eq.sphere(2), 0)
        tr = eq.run(p, eq.EsState(np.ones(2), 0.0), PARAMS, 3, eq.RandomStream(0))
        path = tmp_path / "t.csv"
        tr.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,log_f,log_sigma,accepted,regime"
        assert len(lines) == 5


def _jobs(n, budget=300):
    """n runs on three problems (sphere, cigar, rotated ellipsoid), one
    substream each."""
    problems = [eq.make_problem(eq.sphere(16), 0), eq.make_problem(eq.cigar(16, 100.0), 0),
                eq.make_problem(eq.ellipsoid(8, 10.0), 0, rotation_seed=5)]
    root = eq.RandomStream(17)
    jobs = []
    for i in range(n):
        p = problems[i % 3]
        jobs.append((p, eq.EsState(np.ones(p.d), -2.0), PARAMS, budget, stochastic.substream(root, i)))
    return jobs


def _same_trace(a, b):
    return (all(np.array_equal(getattr(a, c), getattr(b, c))
                for c in ("t", "log_f", "log_sigma", "accepted", "log_norm"))
            and a.metadata == b.metadata and a.hit_zero == b.hit_zero
            and (a.m_centered is None) == (b.m_centered is None)
            and (a.m_centered is None or np.array_equal(a.m_centered, b.m_centered)))


def _tag_pid(monkeypatch):
    """Make each run record on its trace the pid of the process it ran in:
    the kernel (``es_core._walk``) returns its pid beside the kept rows, in
    a worker too, and the caller's ``_expand`` puts it on the trace."""
    real_walk, real_expand = es_core._walk, es_core._expand

    def tagged_walk(*job):
        return real_walk(*job), os.getpid()

    def tagged_expand(tagged, *job):
        rows, pid = tagged
        trace = real_expand(rows, *job)
        trace.pid = pid
        return trace

    monkeypatch.setattr(es_core, "_walk", tagged_walk)
    monkeypatch.setattr(es_core, "_expand", tagged_expand)


class TestRunMany:
    @pytest.mark.parametrize("n_cpus", [2, 3, 5])  # 5: four workers, often more than the cores
    @pytest.mark.parametrize("record_m", [False, True])
    def test_matches_serial_loop_in_job_order(self, cpus, monkeypatch, n_cpus, record_m):
        serial = [eq.run(*job, record_m) for job in _jobs(7)]
        cpus(n_cpus)
        _tag_pid(monkeypatch)
        traces = es_core.run_many([job + (record_m,) for job in _jobs(7)])
        assert len(traces) == 7
        assert all(_same_trace(a, b) for a, b in zip(serial, traces))
        # the jobs i with i % n != 0 ran in a worker, and the workers are gone
        assert [t.pid != os.getpid() for t in traces] == [i % n_cpus != 0 for i in range(7)]
        assert no_child_process()

    def test_caller_runs_every_nth_job(self, cpus, monkeypatch):
        # in-process spans (the benchmark's tracing) see the caller's share
        ran = []
        real_run = es_core.run

        def counting_run(*args, **kwargs):
            ran.append(args[4].path)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(es_core, "run", counting_run)
        cpus(3)
        es_core.run_many(_jobs(7))
        assert ran == [job[4].path for job in _jobs(7)[::3]]

    def test_one_cpu_or_one_job_starts_no_process(self, cpus, monkeypatch):
        def no_fork():
            raise AssertionError("forked a worker")

        monkeypatch.setattr(os, "fork", no_fork)
        cpus(1)
        assert len(es_core.run_many(_jobs(3))) == 3
        cpus(2)
        assert len(es_core.run_many(_jobs(1))) == 1
        with pytest.raises(AssertionError, match="forked a worker"):  # the patch holds
            es_core.run_many(_jobs(2))

    def test_failed_worker_start_stops_the_started_workers(self, cpus, monkeypatch):
        # three CPUs fork two workers; the second fork fails, and the call
        # raises its OSError, no job's failure, with the first worker gone
        real_fork, forks = os.fork, []

        def second_fork_fails():
            forks.append(os.getpid())
            if len(forks) == 2:
                raise OSError("fork refused")
            return real_fork()

        monkeypatch.setattr(os, "fork", second_fork_fails)
        cpus(3)
        with pytest.raises(OSError, match="fork refused") as failure:
            es_core.run_many(_jobs(5))
        assert not hasattr(failure.value, "job_index")
        assert len(forks) == 2
        assert no_child_process()

    def test_caller_starts_no_thread(self, cpus):
        cpus(2)
        before, during = threading.active_count(), []
        traces = es_core.run_many(_jobs(4), meanwhile=lambda: during.append(
            threading.active_count()))
        assert during == [before]
        assert threading.active_count() == before
        assert all(_same_trace(a, b) for a, b in zip(traces, [eq.run(*job) for job in _jobs(4)]))

    def test_error_in_worker_raises_its_own_type(self, cpus):
        cpus(2)
        jobs = _jobs(4)
        p, state, *rest = jobs[1]  # job 1 runs in a worker
        jobs[1] = (p, eq.EsState(np.zeros(p.d), 0.0), *rest)
        with pytest.raises(eq.DegenerateState):
            es_core.run_many(jobs)
        assert no_child_process()
        # the first failing job in job order raises: job 1 before job 2
        p, state, params, _, stream = jobs[2]  # job 2 runs in the caller
        jobs[2] = (p, state, params, -1, stream)
        with pytest.raises(eq.DegenerateState):
            es_core.run_many(jobs)
        jobs[0], jobs[2] = jobs[2], jobs[0]
        with pytest.raises(ValueError, match="budget"):
            es_core.run_many(jobs)
        assert no_child_process()
        # a failed call leaves nothing behind that the next call meets
        assert all(_same_trace(a, b) for a, b in
                   zip(es_core.run_many(_jobs(4)), [eq.run(*job) for job in _jobs(4)]))

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_failing_job_index_on_the_exception(self, cpus, n_cpus):
        cpus(n_cpus)
        jobs = _jobs(5)
        for bad in (4, 1):  # job 1 runs in a worker on two CPUs
            p, state, *rest = jobs[bad]
            jobs[bad] = (p, eq.EsState(np.zeros(p.d), 0.0), *rest)
            with pytest.raises(eq.DegenerateState) as failure:
                es_core.run_many(jobs)
            assert failure.value.job_index == bad

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    def test_meanwhile_runs_once_beside_the_pool(self, cpus, monkeypatch, n_cpus):
        serial = [eq.run(*job) for job in _jobs(5)]
        cpus(n_cpus)
        caller, events = os.getpid(), []
        _tag_pid(monkeypatch)
        tagged_run = es_core.run

        def logged_run(*job):
            events.append(job[4].path)  # in a worker, lands in the worker's copy
            return tagged_run(*job)

        monkeypatch.setattr(es_core, "run", logged_run)
        traces = es_core.run_many(_jobs(5), meanwhile=lambda: events.append(os.getpid()))
        assert len(traces) == 5
        assert all(_same_trace(a, b) for a, b in zip(serial, traces))
        # meanwhile runs in the caller before the caller's jobs: job 0 beside
        # a pool that runs all the others, or every job on one CPU
        mine = _jobs(5) if n_cpus == 1 else _jobs(1)
        assert events == [caller] + [job[4].path for job in mine]
        assert [t.pid != caller for t in traces] == [n_cpus > 1 and i > 0 for i in range(5)]
        assert no_child_process()

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    def test_meanwhile_error_carries_no_job_index(self, cpus, n_cpus):
        cpus(n_cpus)

        def fail():
            raise KeyError("meanwhile")

        with pytest.raises(KeyError, match="meanwhile") as failure:
            es_core.run_many(_jobs(4), meanwhile=fail)
        assert not hasattr(failure.value, "job_index")
        assert no_child_process()
        # a failing job still names itself, in the caller (job 0) or a worker
        for bad in (0, 2):
            jobs = _jobs(4)
            p, state, *rest = jobs[bad]
            jobs[bad] = (p, eq.EsState(np.zeros(p.d), 0.0), *rest)
            with pytest.raises(eq.DegenerateState) as failure:
                es_core.run_many(jobs, meanwhile=lambda: None)
            assert failure.value.job_index == bad
            assert no_child_process()

    def test_killed_worker_does_not_poison_later_calls(self, cpus, monkeypatch):
        cpus(2)
        jobs, real_walk = _jobs(4), es_core._walk
        kill_worker_on(monkeypatch, jobs[1][4].path)  # job 1 runs in the worker
        with pytest.raises(BrokenProcessPool) as failure:
            es_core.run_many(jobs)
        assert failure.value.job_index == 1
        assert no_child_process()
        monkeypatch.setattr(es_core, "_walk", real_walk)
        traces = es_core.run_many(_jobs(2))
        assert all(_same_trace(a, b) for a, b in zip(traces, [eq.run(*job) for job in _jobs(2)]))

    def test_worker_killed_while_sending_raises_at_its_last_job(self, cpus, monkeypatch):
        # the worker runs jobs 1, 2 and 3 with record_m on d = 256; their
        # kept rows fill more than a pipe's buffer, so the worker blocks in
        # its message until the caller reads, which it does after meanwhile
        p = eq.make_problem(eq.sphere(256), 0)
        root = eq.RandomStream(23)
        jobs = [(p, eq.default_initial_state(p), eq.alpha_schedule(256), 400,
                 stochastic.substream(root, i), True) for i in range(4)]
        cpus(2)
        kill = kill_worker_after(monkeypatch, jobs[3][4].path)
        with pytest.raises(BrokenProcessPool) as failure:
            es_core.run_many(jobs, meanwhile=kill)
        assert failure.value.job_index == 3
        assert no_child_process()

    def test_imports_no_multiprocessing(self):
        # a fresh process pays no import for its workers' transport
        loaded = run_python("""
import sys
import esquad as eq
from esquad import es_core
es_core._cpu_count = lambda: 2
p = eq.make_problem(eq.sphere(4), 0)
jobs = [(p, eq.default_initial_state(p), eq.alpha_schedule(4), 50, eq.RandomStream(s))
        for s in range(2)]
assert len(es_core.run_many(jobs)) == 2
print(sorted(name for name in ("multiprocessing", "mmap", "socket") if name in sys.modules))
""")
        assert loaded == "[]"


def test_no_child_process_sees_a_forked_child():
    assert no_child_process()
    gate, release = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child waits until the test lets it go
        try:
            os.close(release)
            os.read(gate, 1)
        finally:
            os._exit(0)
    try:
        assert not no_child_process()
    finally:
        os.close(release)
        os.close(gate)
        os.waitpid(pid, 0)
    assert no_child_process()
