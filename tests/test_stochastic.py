import math
import multiprocessing
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import ndtri

import esquad as eq
from esquad import stochastic
from conftest import run_python


class TestDeterminism:
    def test_same_seed_path_bit_exact(self):
        a = stochastic.normal_vector(eq.RandomStream(7, (1, 2)), 5)
        b = stochastic.normal_vector(eq.RandomStream(7, (1, 2)), 5)
        assert np.array_equal(a, b)

    def test_sequential_draws_advance(self):
        s = eq.RandomStream(7)
        a = stochastic.normal_vector(s, 5)
        b = stochastic.normal_vector(s, 5)
        assert not np.array_equal(a, b)

    def test_matrix_equals_stacked_vectors(self):
        s1, s2 = eq.RandomStream(3), eq.RandomStream(3)
        stacked = np.concatenate([stochastic.normal_vector(s1, 5) for _ in range(4)])
        block = stochastic.normal_matrix(s2, 4, 5).ravel()
        assert np.array_equal(stacked, block)

    def test_64bit_labels(self):
        s = eq.substream(eq.RandomStream(1), 2**63 + 11)
        assert stochastic.normal_vector(s, 3).shape == (3,)


class TestMoments:
    def test_mean_and_variance(self):
        n = 1_000_000
        x = stochastic.normal_vector(eq.RandomStream(123), n)
        assert abs(float(np.mean(x))) < 4.0 / math.sqrt(n)
        assert abs(float(np.var(x)) - 1.0) < 0.01

    def test_symmetry(self):
        n = 1_000_000
        x = stochastic.normal_vector(eq.RandomStream(99), n)
        frac = float(np.mean(x <= 0.0))
        assert abs(frac - 0.5) < 3.0 * 0.5 / math.sqrt(n)


class TestSubstreams:
    def test_distinct_labels_distinct_streams(self):
        s = eq.RandomStream(5)
        a = stochastic.normal_vector(eq.substream(s, 1), 100)
        b = stochastic.normal_vector(eq.substream(s, 2), 100)
        assert not np.array_equal(a, b)

    def test_substream_reproducible(self):
        s = eq.RandomStream(5)
        a = stochastic.normal_vector(eq.substream(s, 1), 100)
        b = stochastic.normal_vector(eq.substream(s, 1), 100)
        assert np.array_equal(a, b)

    def test_parent_unaffected_by_substream_draws(self):
        s1, s2 = eq.RandomStream(8), eq.RandomStream(8)
        stochastic.normal_vector(eq.substream(s1, 3), 1000)
        assert np.array_equal(stochastic.normal_vector(s1, 10), stochastic.normal_vector(s2, 10))

    def test_cross_correlation_small(self):
        n = 100_000
        s = eq.RandomStream(2024)
        a = stochastic.normal_vector(eq.substream(s, 1), n)
        b = stochastic.normal_vector(eq.substream(s, 2), n)
        corr = float(np.mean(a * b))
        assert abs(corr) < 3.0 / math.sqrt(n)


class TestRandomRotation:
    def test_d1_sign(self):
        q = stochastic.random_rotation(eq.RandomStream(1), 1)
        assert q.shape == (1, 1)
        assert abs(abs(q[0, 0]) - 1.0) < 1e-12

    def test_orthogonality(self):
        q = stochastic.random_rotation(eq.RandomStream(4), 8)
        assert np.max(np.abs(q.T @ q - np.eye(8))) < 1e-10

    def test_column_norms(self):
        q = stochastic.random_rotation(eq.RandomStream(9), 6)
        norms = np.linalg.norm(q, axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_deterministic(self):
        a = stochastic.random_rotation(eq.RandomStream(11), 5)
        b = stochastic.random_rotation(eq.RandomStream(11), 5)
        assert np.array_equal(a, b)


def _raw_word_normals(seed, n, skip=0):
    """The contract's transform applied word by word to Philox's raw output."""
    bitgen = np.random.Philox(np.random.SeedSequence(seed))
    raw = bitgen.random_raw(skip + n)[skip:]
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(np.minimum(u, 1.0 - 2.0**-53))


# Draws of 2**15 - 1 to 4M variates (a Monte Carlo chunk); rows of 217 and
# 65 variates end inside a Philox counter value of four words.
SPLIT_SHAPES = [(151, 217), (128, 256), (256, 256), (1000, 65), (15625, 256)]


class TestSplitDraw:
    @pytest.mark.parametrize("rows,d", SPLIT_SHAPES)
    @pytest.mark.parametrize("drawn", [0, 1, 2, 3])
    def test_matrix_equals_stacked_vectors(self, rows, d, drawn):
        s1, s2 = eq.RandomStream(21, (4,)), eq.RandomStream(21, (4,))
        if drawn:
            stochastic.normal_vector(s1, drawn)
            stochastic.normal_vector(s2, drawn)
        block = stochastic.normal_matrix(s1, rows, d)
        stacked = np.stack([stochastic.normal_vector(s2, d) for _ in range(rows)])
        assert np.array_equal(block, stacked)
        assert np.array_equal(stochastic.normal_vector(s1, 5), stochastic.normal_vector(s2, 5))

    @pytest.mark.parametrize("drawn", [0, 3])
    def test_bytes_follow_raw_words(self, drawn):
        s = eq.RandomStream(17)
        if drawn:
            stochastic.normal_vector(s, drawn)
        n = 1000 * 256
        got = np.concatenate([stochastic.normal_matrix(s, 1000, 256).ravel(),
                              stochastic.normal_vector(s, 9)])
        assert np.array_equal(got, _raw_word_normals(17, n + 9, drawn))


class TestUniformEnds:
    @staticmethod
    def _stream_with_words(words):
        s = eq.RandomStream(0)
        state = s._bitgen.state
        state["buffer"] = np.array(words, dtype=np.uint64)
        state["buffer_pos"] = 0
        s._bitgen.state = state
        return s

    def test_top_word_gives_finite_normal(self):
        top = 2**64 - 1
        s = self._stream_with_words([top, 2**64 - 2**11, (2**53 - 2) << 11, 0])
        z = stochastic.normal_vector(s, 4)
        assert np.all(np.isfinite(z))
        assert z[0] == z[1] == ndtri(1.0 - 2.0**-53)
        assert z[2] == ndtri(1.0 - 2.0**-52)  # the next word down is unchanged
        assert z[3] == ndtri(2.0**-54)


def test_concurrent_callers_share_the_pool():
    seeds = range(6)
    expected = [stochastic.normal_matrix(eq.RandomStream(s), 256, 256) for s in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as callers:
            futures = [callers.submit(stochastic.normal_matrix, eq.RandomStream(s), 256, 256)
                       for s in seeds]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))


def _fork_child_draw(seed):
    return stochastic.normal_matrix(eq.RandomStream(seed), 1000, 256)


def test_forked_child_draws_like_parent():
    parent = stochastic.normal_matrix(eq.RandomStream(44), 1000, 256)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        child = pool.apply_async(_fork_child_draw, (44,)).get(timeout=60)
    assert np.array_equal(child, parent)


def test_large_draw_starts_no_thread():
    # A forked run_many worker must not inherit threads of this package.
    code = ("import threading; import esquad as eq; from esquad import stochastic; "
            "stochastic.normal_matrix(eq.RandomStream(1), 1024, 256); "
            "print(threading.active_count())")
    assert run_python(code) == "1"


class TestChiSquare:
    @pytest.mark.parametrize("dof", [1, 2, 15, 255])
    def test_one_column_equals_the_array_shape_draws(self, dof):
        # one column takes numpy's scalar-shape path
        got = stochastic.chi_square_matrix(stochastic.chi_square_source(eq.RandomStream(8)),
                                           400, np.array([dof]))
        source = stochastic.chi_square_source(eq.RandomStream(8))
        want = 2.0 * source.standard_gamma(0.5 * np.array([dof]), size=(400, 1))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dof", [[127], [1, 127], [3, 4, 5]])
    def test_matrix_equals_stacked_rows(self, dof):
        source = stochastic.chi_square_source(eq.RandomStream(9))
        rows = [stochastic.chi_square_matrix(source, 1, np.array(dof)) for _ in range(50)]
        whole = stochastic.chi_square_matrix(stochastic.chi_square_source(eq.RandomStream(9)),
                                             50, np.array(dof))
        assert np.concatenate(rows).tobytes() == whole.tobytes()


def test_generator_id_is_stable():
    assert eq.GENERATOR_ID == "philox-seedseq+invcdf+chi2-gamma-rejection/v3"


def test_invalid_dimension():
    with pytest.raises(ValueError):
        stochastic.normal_vector(eq.RandomStream(0), 0)
