import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import esquad as eq
from conftest import random_problem


class TestMakeProblem:
    def test_sphere_d2_identity(self):
        p = eq.make_problem([1, 1], (0, 0))
        assert p.d == 2
        assert np.array_equal(p.spectrum.eigenvalues, [1.0, 1.0])

    def test_cigar_smallest_over_trace(self):
        p = eq.make_problem([10, 10, 10, 1], 0)
        stats = eq.spectrum_stats(p)
        d, xi = 4, 10
        assert stats.L / stats.trace == pytest.approx(1.0 / ((d - 1) * xi + 1))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(eq.InvalidSpectrum):
            eq.make_problem([-1, 1], 0)

    def test_dimension_mismatch(self):
        with pytest.raises(eq.DimensionMismatch):
            eq.make_problem([1, 1], (0, 0, 0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_optimum_must_be_finite(self, bad):
        with pytest.raises(eq.DomainError, match="optimum must be finite"):
            eq.make_problem([1, 1], (0.0, bad))

    def test_eigenvalues_sorted_descending(self):
        p = eq.make_problem([1, 5, 2], 0)
        assert list(p.spectrum.eigenvalues) == [5.0, 2.0, 1.0]


class TestEvaluate:
    def test_sphere_half_norm_sq(self):
        p = eq.make_problem([1, 1], (0, 0))
        assert p.evaluate([1, 0]) == 0.5

    def test_cigar_small_axis(self):
        p = eq.make_problem([10, 10, 10, 1], 0)
        assert p.evaluate([0, 0, 0, 2]) == 2.0

    def test_sqrt_transform_applied(self):
        p = eq.make_problem([1, 1], (0, 0), transform=eq.SQRT)
        assert p.evaluate([1, 0]) == pytest.approx(math.sqrt(0.5))

    def test_nonnegative_zero_only_at_optimum(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_problem(rng, 6)
            x = rng.normal(size=6)
            assert p.evaluate(x) >= 0.0
            assert p.evaluate(p.optimum) == 0.0
            if not np.array_equal(x, p.optimum):
                assert p.evaluate(x) > 0.0

    def test_dimension_check(self):
        p = eq.make_problem([1, 1], 0)
        with pytest.raises(eq.DimensionMismatch):
            p.evaluate([1, 0, 0])


class TestGradient:
    def test_sphere_gradient_is_offset(self):
        p = eq.make_problem([1, 1], (0, 0))
        g = p.gradient_core([3, 4])
        assert np.array_equal(g, [3.0, 4.0])
        assert np.linalg.norm(g) == 5.0

    def test_diagonal_gradient(self):
        p = eq.make_problem([2, 1], 0)
        assert np.array_equal(p.gradient_core([1, 1]), [2.0, 1.0])

    def test_central_differences_match(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(100):
            d = int(rng.integers(2, 9))
            p = random_problem(rng, d)
            x = rng.normal(size=d) * 2.0
            g = p.gradient_core(x)
            fd = np.empty(d)
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                fd[i] = (p.evaluate(x + e) - p.evaluate(x - e)) / (2 * h)
            scale = max(np.linalg.norm(g), 1.0)
            assert np.linalg.norm(fd - g) / scale < 1e-6

    def test_grad_norm_brackets_sqrt_f(self):
        # ||grad||^2 / (2U) <= h <= ||grad||^2 / (2L)
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = int(rng.integers(2, 12))
            p = random_problem(rng, d)
            stats = eq.spectrum_stats(p)
            x = rng.normal(size=d)
            h = p.core(x)
            g2 = float(np.dot(p.gradient_core(x), p.gradient_core(x)))
            assert g2 / (2 * stats.U) <= h * (1 + 1e-12)
            assert h <= g2 / (2 * stats.L) * (1 + 1e-12)


class TestSpectrumStats:
    def test_sphere_d10(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.sphere(10), 0))
        assert (stats.L, stats.U) == (1.0, 1.0)
        assert stats.trace == 10.0
        assert stats.trace_sq == 10.0
        assert stats.ratio == pytest.approx(0.1)
        assert stats.cond == 1.0

    def test_discus_d64(self):
        stats = eq.spectrum_stats(eq.make_problem(eq.discus(64, 100), 0))
        assert stats.trace == 163.0
        assert stats.L == 1.0
        assert stats.cond == 100.0
        assert stats.L / stats.trace == pytest.approx(1.0 / (100 + 64 - 1))

    def test_ratio_at_most_cond_over_d(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            d = int(rng.integers(2, 40))
            p = random_problem(rng, d)
            stats = eq.spectrum_stats(p)
            assert stats.ratio <= stats.cond / d * (1 + 1e-12)

    def test_rotation_does_not_change_stats(self):
        lam = [4.0, 2.0, 1.0, 0.5]
        plain = eq.spectrum_stats(eq.make_problem(lam, 0))
        for seed in (1, 2, 3):
            rotated = eq.spectrum_stats(eq.make_problem(lam, 0, rotation_seed=seed))
            assert rotated == plain

    def test_ratio_bounds(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            d = int(rng.integers(1, 20))
            lam = np.exp(rng.uniform(-1, 1, size=d))
            stats = eq.spectrum_stats(eq.make_problem(lam, 0))
            assert 1.0 / d <= stats.ratio * (1 + 1e-12)
            assert stats.ratio <= 1.0


class TestTransforms:
    @given(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_float_arithmetic(self, a, b):
        # Strict monotonicity holds on the reals; float evaluation can only
        # collapse ties, never invert an ordering.
        for tag in (eq.IDENTITY, eq.SQRT, eq.LOG1P, eq.CUBE,
                    eq.MonotoneTransform("affine", 2.5, -1.0)):
            if a <= b:
                assert tag.apply(a) <= tag.apply(b)

    def test_strict_on_separated_inputs(self):
        for tag in (eq.IDENTITY, eq.SQRT, eq.LOG1P, eq.CUBE,
                    eq.MonotoneTransform("affine", 2.5, -1.0)):
            values = [tag.apply(x) for x in (0.0, 0.5, 1.0, 2.0, 10.0)]
            assert values == sorted(values)
            assert len(set(values)) == len(values)

    def test_affine_requires_positive_slope(self):
        with pytest.raises(eq.DomainError):
            eq.MonotoneTransform("affine", a=0.0)

    def test_unknown_tag_rejected(self):
        with pytest.raises(eq.DomainError):
            eq.MonotoneTransform("exp")

    @pytest.mark.parametrize("a, b", [(math.nan, 0.0), (math.inf, 0.0), (2.0, math.nan),
                                      (2.0, -math.inf)])
    def test_parameters_must_be_finite(self, a, b):
        with pytest.raises(eq.DomainError, match="finite"):
            eq.MonotoneTransform("affine", a, b)


class TestSerialization:
    def test_round_trip(self):
        p = eq.make_problem(
            [3, 1], (1.5, -2.0), transform=eq.LOG1P, rotation_seed=9
        )
        text = json.dumps(p.to_json())
        q = eq.problem_from_json(text)
        assert np.array_equal(q.spectrum.eigenvalues, p.spectrum.eigenvalues)
        assert np.array_equal(q.optimum, p.optimum)
        assert q.transform == p.transform
        assert q.rotation_seed == 9
        assert np.array_equal(q.rotation, p.rotation)

    def test_rotation_is_drawn_from_its_seed(self):
        p = eq.make_problem(eq.ellipsoid(32, 10.0), 0, rotation_seed=3)
        moved = replace(p, optimum=np.arange(32.0))
        loaded = eq.problem_from_json(json.dumps(p.to_json()))
        for q in (moved, loaded):
            assert q.rotation.tobytes() == p.rotation.tobytes()
        assert not p.rotation.flags.writeable
        assert eq.make_problem([2, 1], 0).rotation is None
        with pytest.raises(TypeError):
            eq.QuadraticProblem(p.spectrum, p.optimum, rotation=p.rotation)

    def test_schema_shape(self):
        p = eq.make_problem([1, 1], 0)
        doc = p.to_json()
        assert set(doc) == {"eigenvalues", "optimum", "transform", "rotation_seed"}
        assert doc["transform"] == "identity"
        assert doc["rotation_seed"] is None

    def test_affine_round_trip(self):
        p = eq.make_problem([1], [0], transform=eq.MonotoneTransform("affine", 2, 3))
        q = eq.problem_from_json(p.to_json())
        assert q.transform.a == 2 and q.transform.b == 3

    @pytest.mark.parametrize("change, match", [
        ({"rotation_seed": 1.5}, "rotation_seed"),
        ({"rotation_seed": True}, "rotation_seed"),
        ({"rotation_seed": "4"}, "rotation_seed"),
        ({"rotaton_seed": 4}, "unknown problem keys"),
        ({"transform": {"name": "affine", "a": True, "b": 0}}, "transform a"),
        ({"transform": {"name": "affine", "a": 2, "b": math.nan}}, "transform b"),
        ({"transform": {"name": "affine", "a": 2, "b": math.inf}}, "transform b"),
        ({"transform": {"name": "affine", "a": "2", "b": 0}}, "transform a"),
        ({"transform": {"name": "affine", "a": 2, "b": 0, "c": 5}}, "keys a, b and name"),
        ({"transform": {"name": "affine", "a": 2}}, "keys a, b and name"),
    ], ids=["seed-float", "seed-bool", "seed-string", "misspelt-key", "transform-a-true",
            "transform-b-nan", "transform-b-inf", "transform-a-string",
            "transform-extra-key", "transform-no-b"])
    def test_rejects_what_it_would_rewrite(self, change, match):
        # a float or bool seed used to become seed 1, a misspelt key was
        # dropped; a bool slope became 1.0, and a NaN offset was kept
        doc = {**eq.make_problem([3, 1], 0).to_json(), **change}
        with pytest.raises(ValueError, match=match):
            eq.problem_from_json(doc)


class TestCoreBatch:
    @pytest.mark.parametrize("rotation_seed", [None, 4])
    def test_rows_match_scalar_core(self, rotation_seed):
        rng = np.random.default_rng(47)
        p = eq.make_problem(eq.ellipsoid(33, 1e3), 0, rotation_seed=rotation_seed)
        Y = rng.normal(size=(200, 33)) * np.exp(rng.uniform(-5, 5, size=(200, 1)))
        batch = p.core_centered_batch(Y)
        scalar = np.array([p.core_centered(y) for y in Y])
        assert np.all(np.abs(batch - scalar) <= 1e-13 * scalar)


class TestEigenGroups:
    def test_groups_and_norms(self):
        p = eq.make_problem([5.0, 5.0, 2.0, 1.0, 1.0, 1.0], 0, rotation_seed=3)
        groups = p.eigen_groups()
        assert groups.eigenvalues.tolist() == [1.0, 2.0, 5.0]
        assert groups.counts.tolist() == [3, 1, 2]
        assert np.array_equal(groups.eigenvalues[groups.index], p.spectrum.eigenvalues)
        y = np.random.default_rng(45).normal(size=6)
        u = p.eigen_frame(y)
        norms = groups.norms(u)
        assert norms.tolist() == pytest.approx(
            [np.linalg.norm(u[3:]), abs(u[2]), np.linalg.norm(u[:2])], rel=1e-15)
        # the core depends on y only through the group norms
        assert 0.5 * np.dot(groups.eigenvalues, norms**2) == pytest.approx(
            p.core_centered(y), rel=1e-14)


class TestStableLogs:
    def test_log_core_matches_direct(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            d = int(rng.integers(2, 10))
            p = random_problem(rng, d)
            y = rng.normal(size=d)
            assert p.log_core_centered(y) == pytest.approx(
                math.log(p.core_centered(y)), rel=1e-12
            )

    def test_log_core_below_underflow(self):
        p = eq.make_problem(eq.sphere(4), 0)
        y = np.full(4, 1e-200)
        # core would be 2e-400, unrepresentable; the log is fine
        assert p.core_centered(y) == 0.0
        assert p.log_core_centered(y) == pytest.approx(
            math.log(0.5) + 2 * math.log(1e-200) + math.log(4.0)
        )

    def test_log_grad_norm_matches_direct(self):
        rng = np.random.default_rng(43)
        p = random_problem(rng, 7)
        y = rng.normal(size=7)
        assert p.log_grad_norm_centered(y) == pytest.approx(
            math.log(p.grad_norm_centered(y)), rel=1e-12
        )
