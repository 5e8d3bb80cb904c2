import math
import types

import numpy as np
import pytest

import esquad as eq
from esquad import bounds, es_core, montecarlo, potential, stochastic
from conftest import TIE_SPECTRA, random_problem, tie_start, tie_variates


class TestSuccessProb:
    def test_vanishing_sigma_approaches_half(self):
        p = eq.make_problem(eq.ellipsoid(12, 5), 0)
        m = p.optimum + np.ones(12)
        sigma = 1e-12 * float(np.linalg.norm(m - p.optimum))
        est = montecarlo.estimate_success_prob(p, m, sigma, 10000, eq.RandomStream(1))
        assert abs(est.mean - 0.5) <= 3 * est.std_error + 1e-12

    def test_overshoot_limit_near_zero(self):
        p = eq.make_problem(eq.sphere(16), 0)
        m = p.optimum + np.ones(16) / 4.0
        sigma = 1e6 * float(np.linalg.norm(m - p.optimum))
        est = montecarlo.estimate_success_prob(p, m, sigma, 10000, eq.RandomStream(2))
        assert est.mean < 0.01
        assert est.mean <= 3 * est.std_error + 1e-12

    def test_inside_sandwich_sphere_d100(self):
        p = eq.make_problem(eq.sphere(100), 0)
        stats = eq.spectrum_stats(p)
        m = p.optimum + np.ones(100) / 10.0
        grad_norm = p.grad_norm_centered(p.centered(m))
        sigma = 1.0 * grad_norm / stats.trace
        est = montecarlo.estimate_success_prob(p, m, sigma, 100000, eq.RandomStream(3))
        lower, upper = bounds.success_prob_sandwich(stats, 1.0, 0.5)
        assert lower - 3 * est.std_error <= est.mean <= upper + 3 * est.std_error

    def test_minimum_n(self):
        p = eq.make_problem(eq.sphere(4), 0)
        with pytest.raises(eq.DomainError):
            montecarlo.estimate_success_prob(p, np.ones(4), 0.1, 50, eq.RandomStream(0))

    def test_degenerate_state(self):
        p = eq.make_problem(eq.sphere(4), 0)
        with pytest.raises(eq.DegenerateState):
            montecarlo.estimate_success_prob(p, np.zeros(4), 0.1, 1000, eq.RandomStream(0))


class TestLogProgress:
    def test_vanishing_sigma_vanishes(self):
        p = eq.make_problem(eq.sphere(8), 0)
        m = p.optimum + np.ones(8)
        scale = float(np.linalg.norm(m - p.optimum))
        est = montecarlo.estimate_log_progress(p, m, 1e-8 * scale, 5000, eq.RandomStream(4))
        assert abs(est.mean) < 1e-6

    def test_always_nonpositive(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            d = int(rng.integers(4, 20))
            p = random_problem(rng, d)
            m = p.optimum + rng.normal(size=d)
            sigma = float(math.exp(rng.uniform(-3, 3)))
            est = montecarlo.estimate_log_progress(p, m, sigma, 500, eq.RandomStream(trial))
            assert est.mean <= 0.0


class TestExpAbs:
    def test_vanishing_sigma_approaches_one(self):
        p = eq.make_problem(eq.sphere(8), 0)
        m = p.optimum + np.ones(8)
        est = montecarlo.estimate_exp_abs(p, m, 1e-10, 2000, eq.RandomStream(6))
        assert est.mean == pytest.approx(1.0, abs=1e-6)

    def test_at_least_one(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            d = int(rng.integers(5, 16))
            p = random_problem(rng, d)
            m = p.optimum + rng.normal(size=d)
            sigma = float(math.exp(rng.uniform(-2, 2)))
            est = montecarlo.estimate_exp_abs(p, m, sigma, 1000, eq.RandomStream(trial))
            assert est.mean >= 1.0

    def test_bound_d8_d32(self):
        rng = np.random.default_rng(8)
        for d in (8, 32):
            for cond in (1.0, 10.0):
                lam = eq.sphere(d) if cond == 1 else eq.ellipsoid(d, cond)
                p = eq.make_problem(lam, 0)
                stats = eq.spectrum_stats(p)
                m = p.optimum + rng.normal(size=d)
                sigma = p.grad_norm_centered(p.centered(m)) / stats.trace
                est = montecarlo.estimate_exp_abs(
                    p, m, sigma, 20000, eq.RandomStream(60 + d + int(cond))
                )
                assert est.mean <= bounds.exp_moment_bound(stats) + 3 * est.std_error


class TestDriftV:
    def test_pathwise_cap_every_sample(self, sphere256, params256, constants256):
        state = eq.default_initial_state(sphere256)
        est, samples = montecarlo.estimate_drift_V(
            sphere256, state, constants256, params256, 2000,
            eq.RandomStream(9),
        )
        cap = potential.potential_step_cap(constants256, params256)
        assert np.all(samples <= cap)
        assert est.n == 2000

    def test_minimum_n(self, sphere256, params256, constants256):
        with pytest.raises(eq.DomainError):
            montecarlo.estimate_drift_V(
                sphere256, eq.default_initial_state(sphere256), constants256,
                params256, 500, eq.RandomStream(0),
            )


class TestEstimatorContracts:
    def test_bit_reproducibility(self):
        p = eq.make_problem(eq.ellipsoid(10, 3), 0)
        m = p.optimum + np.ones(10)
        a = montecarlo.estimate_success_prob(p, m, 0.3, 5000, eq.RandomStream(55, (7,)))
        b = montecarlo.estimate_success_prob(p, m, 0.3, 5000, eq.RandomStream(55, (7,)))
        assert a == b
        c = montecarlo.estimate_log_progress(p, m, 0.3, 5000, eq.RandomStream(56))
        d = montecarlo.estimate_log_progress(p, m, 0.3, 5000, eq.RandomStream(56))
        assert c == d

    def test_chunking_does_not_change_results(
        self, monkeypatch, params256, constants256
    ):
        # cigar:100 has two eigenspaces, so chi_k columns cross chunk
        # boundaries; it has no feasible constants at d = 64, and the
        # sphere's serve drift_V as a fixed potential
        problems = [eq.make_problem(lam, 0)
                    for lam in (eq.sphere(256), eq.cigar(64, 100.0))]

        def all_four(p):
            m = p.optimum + np.ones(p.d)
            state = eq.default_initial_state(p)
            return (
                montecarlo.estimate_success_prob(p, m, 0.4, 1000, eq.RandomStream(77)),
                montecarlo.estimate_log_progress(p, m, 0.4, 1000, eq.RandomStream(78)),
                montecarlo.estimate_exp_abs(p, m, 0.4, 1000, eq.RandomStream(79)),
                montecarlo.estimate_drift_V(p, state, constants256, params256,
                                    1000, eq.RandomStream(80))[0],
            )

        ref = [all_four(p) for p in problems]
        monkeypatch.setattr(montecarlo, "_chunk_rows", lambda width: 17)
        assert [all_four(p) for p in problems] == ref

    def test_successive_calls_share_no_variates(self, monkeypatch):
        """Two calls on one stream draw fresh chi_k: no quad and no chi value
        of the first call recurs in the second."""
        p = eq.make_problem(eq.cigar(64, 100.0), 0)
        m = p.optimum + np.ones(p.d)
        chis = []

        def recording(*args):
            chis.append(stochastic.chi_square_matrix(*args))
            return chis[-1]

        monkeypatch.setattr(es_core, "chi_square_matrix", recording)
        stream = eq.RandomStream(81)
        quads = [_sampled(p, m, 0.4, 1000, stream)[1] for _ in range(2)]
        assert np.intersect1d(quads[0], quads[1]).size == 0
        assert len(chis) == 2 and chis[0].shape == (1000, 1)
        assert np.intersect1d(chis[0], chis[1]).size == 0

    def test_offspring_are_the_kernels_draw(self):
        """The sampler's rows are es_core.draw_block's: the stream keys the
        chi-square source, then gives one block per chunk."""
        p = eq.make_problem(eq.cigar(16, 100.0), 0)
        m = p.optimum + np.ones(p.d)
        quad = _sampled(p, m, 0.4, 1000, eq.RandomStream(82))[1]
        stream = eq.RandomStream(82)
        source = stochastic.chi_square_source(stream)
        q = es_core.draw_block(stream, source, 1000, p.eigen_groups())[2]
        assert np.array_equal(quad, 0.4 * 0.4 * q)

    def test_se_shrinks_like_sqrt_n(self):
        p = eq.make_problem(eq.sphere(8), 0)
        m = p.optimum + np.ones(8)
        ratios = []
        for k in range(10):
            a = montecarlo.estimate_log_progress(
                p, m, 0.5, 4000, eq.RandomStream(100 + k)
            )
            b = montecarlo.estimate_log_progress(
                p, m, 0.5, 8000, eq.RandomStream(200 + k)
            )
            ratios.append(a.std_error / b.std_error)
        mean_ratio = float(np.mean(ratios))
        assert abs(mean_ratio - math.sqrt(2.0)) < 0.2 * math.sqrt(2.0)

    def test_estimator_ids(self):
        p = eq.make_problem(eq.sphere(4), 0)
        m = p.optimum + np.ones(4)
        assert "antithetic" in montecarlo.estimate_success_prob(
            p, m, 0.1, 100, eq.RandomStream(0)
        ).estimator_id
        assert montecarlo.estimate_log_progress(
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
        "success_prob": lambda: montecarlo.estimate_success_prob(
            p, m, sigma, 1000, eq.RandomStream(0)),
        "log_progress": lambda: montecarlo.estimate_log_progress(
            p, m, sigma, 1000, eq.RandomStream(0)),
        "exp_abs": lambda: montecarlo.estimate_exp_abs(p, m, sigma, 1000, eq.RandomStream(0)),
        "drift_V": lambda: montecarlo.estimate_drift_V(
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
            montecarlo.estimate_drift_V(sphere256, state, constants256, params256, 1000,
                                eq.RandomStream(0))

    def test_drift_sigma_overflow(self, sphere256, params256, constants256):
        state = eq.EsState(sphere256.optimum + np.ones(256), 800.0)  # sigma overflows
        with pytest.raises(eq.DomainError, match="overflows"):
            montecarlo.estimate_drift_V(sphere256, state, constants256, params256, 1000,
                                eq.RandomStream(0))

    @pytest.mark.parametrize("name", ESTIMATORS)
    def test_core_must_be_representable(self, name, sphere256, params256,
                                         constants256):
        m = sphere256.optimum + np.full(256, 1e-200)  # the core underflows to 0
        call = _four_estimators(sphere256, m, 1e-200, constants256, params256)[name]
        with pytest.raises(eq.NumericalFailure):
            call()


def _sampled(p, m, sigma, rows, stream):
    """Decrement terms and log gains of the sampler, concatenated over chunks."""
    chunks = []

    def grab(lin, quad, accepted, gain):
        chunks.append((lin, quad, gain()))
        return lin

    montecarlo._sample(p, m, sigma, rows, stream, grab)
    return [np.concatenate(parts) for parts in zip(*chunks)]


def _offspring(p, y, rows, seed):
    """The z of each sampled row, rebuilt from the xi_k and chi_k that the
    sampler draws from RandomStream(seed), one group per distinct eigenvalue
    in ascending order.

    In the eigenframe, group k of w = R^T z is ``xi_k u_k/|u_k| + sqrt(chi_k) e_k``
    for a fixed unit vector e_k of the eigenspace orthogonal to u_k.
    """
    _, group, mult = np.unique(p.spectrum.eigenvalues,
                               return_inverse=True, return_counts=True)
    stream = eq.RandomStream(seed)
    chi_source = stochastic.chi_square_source(stream)
    xi = stochastic.normal_matrix(stream, rows, mult.size)
    chi = stochastic.chi_square_matrix(chi_source, rows, mult[mult > 1] - 1)
    u = p.eigen_frame(y)
    W = np.zeros((rows, p.d))
    col = 0
    for k in range(mult.size):
        idx = np.flatnonzero(group == k)
        unit = u[idx] / np.linalg.norm(u[idx])
        W[:, idx] = np.outer(xi[:, k], unit)
        if idx.size > 1:
            e = np.zeros(idx.size)
            e[np.argmin(np.abs(unit))] = 1.0
            e -= (e @ unit) * unit
            W[:, idx] += np.outer(np.sqrt(chi[:, col]), e / np.linalg.norm(e))
            col += 1
    return W if p.rotation is None else W @ p.rotation.T


class TestSamplerMatchesDirectEvaluation:
    """The reduced decrement form against cores of the offspring y +- sigma z,
    with z rebuilt in full dimension from the sampler's variates."""

    @pytest.mark.parametrize("rotation_seed", [None, 5])
    @pytest.mark.parametrize("sigma_scale", [0.05, 0.3, 1.0])
    def test_per_row(self, monkeypatch, rotation_seed, sigma_scale):
        monkeypatch.setattr(montecarlo, "_chunk_rows", lambda width: 37)
        # distinct eigenvalues draw no chi_k; the grouped spectrum draws two
        for lam in (eq.ellipsoid(6, 30.0), [30.0, 30.0, 30.0, 5.0, 1.0, 1.0]):
            rng = np.random.default_rng(17)
            p = eq.make_problem(lam, rng.normal(size=6), rotation_seed=rotation_seed)
            m = p.optimum + rng.normal(size=6)
            y = m - p.optimum
            sigma = sigma_scale * float(np.linalg.norm(y))
            rows = 500
            lin, quad, gain = _sampled(p, m, sigma, rows, eq.RandomStream(23))
            Z = _offspring(p, y, rows, seed=23)
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
        m = p.optimum + stochastic.normal_vector(eq.RandomStream(3), 16)
        y = m - p.optimum
        sigma = sigma_scale * float(np.linalg.norm(y))
        # at sigma = 0.5|y| the sphere accepts with probability 2.3e-4
        pairs = 40_000
        est = montecarlo.estimate_success_prob(p, m, sigma, 2 * pairs, eq.RandomStream(31))
        Z = _offspring(p, y, pairs, seed=31)
        core_m = p.core_centered(y)
        a = p.core_centered_batch(y + sigma * Z) <= core_m
        b = p.core_centered_batch(y - sigma * Z) <= core_m
        a, b = a.astype(float), b.astype(float)
        pair_means = 0.5 * (a + b)
        assert est.mean == pytest.approx(float(np.mean(pair_means)), abs=1e-15)
        assert est.std_error == pytest.approx(
            float(np.std(pair_means, ddof=1)) / math.sqrt(pairs), rel=1e-12)
        assert 0.0 < np.mean(a) < 1.0
        assert np.cov(a, b)[0, 1] <= 0.0
        single = 0.5 * (np.var(a, ddof=1) + np.var(b, ddof=1))
        assert est.std_error ** 2 * pairs <= 0.5 * single * (1 + 1e-12)


class TestTies:
    """An offspring or an antithetic partner whose decrement is exactly 0 is
    accepted: row 0 of the one chunk is such a tie (``tie_variates``), and
    every later row and its partner are rejected."""

    @pytest.mark.parametrize("lam", TIE_SPECTRA, ids=["G1", "G2", "G3"])
    @pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["offspring", "partner"])
    def test_success_counts_a_tie(self, monkeypatch, lam, sign):
        tie_variates(monkeypatch, sign)
        p = eq.make_problem(lam, 0)
        est = montecarlo.estimate_success_prob(p, tie_start(lam), 1.0, 100, eq.RandomStream(0))
        assert est.mean == 0.5 / 50  # one pair of 50 has one accepted offspring

    def test_drift_steps_sigma_up_on_a_tie(self, monkeypatch, constants256, params256):
        tie_variates(monkeypatch, -1.0)
        lam = TIE_SPECTRA[1]
        p, stats = eq.make_problem(lam, 0), eq.spectrum_stats(eq.make_problem(lam, 0))
        state = eq.EsState(tie_start(lam), 0.0)
        _, samples = montecarlo.estimate_drift_V(p, state, constants256, params256, 1000,
                                                 eq.RandomStream(0))
        log_f = p.log_core_centered(state.m)  # a tie keeps it, a rejection too
        steps = np.array([params256.log_up, params256.log_down])
        v_next = potential.potential_from_logs(log_f, steps, stats, constants256)
        v_now = potential.potential_from_logs(log_f, 0.0, stats, constants256)
        assert samples[:2].tolist() == (v_next - v_now).tolist()


class TestDistribution:
    """The reduced sampler's estimates against exact values and against plain
    full-dimension sampling, within 3 standard errors."""

    @pytest.mark.parametrize("sigma_norm", [0.05, 0.25, 1.0, 4.0])
    def test_sphere_success_against_ncx2(self, sigma_norm):
        from scipy import stats

        d = 256
        p = eq.make_problem(eq.sphere(d), 0)
        m = stochastic.normal_vector(eq.RandomStream(41), d)
        # the offspring is accepted iff |y/sigma + z|^2 <= |y/sigma|^2
        sigma = sigma_norm * float(np.linalg.norm(m)) / d
        nc = float(m @ m) / sigma**2
        exact = stats.ncx2.cdf(nc, d, nc)
        est = montecarlo.estimate_success_prob(p, m, sigma, 4_000_000,
                                       eq.RandomStream(42, (int(4 * sigma_norm),)))
        assert abs(est.mean - exact) <= 3 * est.std_error

    @pytest.mark.parametrize("lam,rotation_seed", [
        (eq.cigar(64, 100.0), None),
        (eq.discus(32, 10.0), None),
        (eq.ellipsoid(16, 100.0), 13),
    ], ids=["cigar100-d64", "discus10-d32", "rotated-ellipsoid100-d16"])
    @pytest.mark.parametrize("sigma_norm", [0.25, 1.0, 4.0])
    def test_against_full_dimension(self, lam, rotation_seed, sigma_norm):
        p = eq.make_problem(lam, 0, rotation_seed=rotation_seed)
        case = int(4 * sigma_norm)  # each sigma draws its own variates
        rng = np.random.default_rng((43, case))
        m = rng.normal(size=p.d)
        sigma = sigma_norm * p.grad_norm_centered(p.centered(m)) / sum(lam)
        core_m = p.core_centered(m)
        core_x = p.core_centered_batch(m + sigma * rng.normal(size=(200_000, p.d)))
        accept = core_x <= core_m
        full = {
            "success_prob": accept.astype(float),
            "log_progress": np.where(accept, np.log(core_x / core_m), 0.0),
        }
        reduced = {
            "success_prob": montecarlo.estimate_success_prob(
                p, m, sigma, 400_000, eq.RandomStream(44, (case,))),
            "log_progress": montecarlo.estimate_log_progress(
                p, m, sigma, 400_000, eq.RandomStream(45, (case,))),
        }
        for name, est in reduced.items():
            ref = full[name]
            ref_se = float(np.std(ref, ddof=1)) / math.sqrt(ref.size)
            gap = abs(est.mean - float(np.mean(ref)))
            assert gap <= 3 * math.hypot(est.std_error, ref_se), name
