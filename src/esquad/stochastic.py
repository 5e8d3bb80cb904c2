"""Deterministic, splittable randomness for all stochastic components.

Streams are built on the counter-based Philox generator keyed through
``numpy.random.SeedSequence(seed, spawn_key=path)``, so a stream is fully
identified by its ``(seed, path)`` pair and distinct paths are statistically
independent.  Normal variates are produced by inverting the standard normal
CDF (``scipy.special.ndtri``) on the 53-bit uniform
``((raw >> 11) + 0.5) * 2**-53`` of each raw 64-bit word, capped at the
largest double below 1 so that the top word maps into (0, 1) as well; the
method is part of the reproducibility contract and must not change without
bumping GENERATOR_ID.

Chi-square variates with k degrees of freedom are numpy's rejection sampler
``2 * Generator.standard_gamma(k / 2)`` (also named in GENERATOR_ID) on the
generator of a companion stream, a stream keyed by one raw word of its
parent.  Its words per draw vary, so it runs apart from the stream's
normals: its draws do not depend on how they are cut into calls, and two
sources from one stream share no words.

A large draw is filled on every CPU the process may run on, with the same
bytes as a sequential draw.  Philox yields four raw words per counter value,
so the word at offset k of a stream's future output can be reached by
advancing a copy of its generator by k // 4 counter values, without drawing
the words before it.  A draw first takes the words left in the generator's
four-word buffer, then cuts the rest at multiples of four words into one
piece per CPU (``len(os.sched_getaffinity(0))``), or fewer, so that a
piece holds about ``_PIECE_MIN`` variates or more.  Each piece fills its
slice of one output array in place on its own advanced copy, and the stream
continues from the copy that filled the last piece.  The pieces run on a
thread pool created on first use (and again in a forked child, whose
inherited pool has no threads); numpy's fill and ``ndtri`` release the GIL,
and the pool's threads call only the private helpers of this module.
"""

from __future__ import annotations

import copy
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np
from scipy.special import ndtri

GENERATOR_ID = "philox-seedseq+invcdf+chi2-gamma-rejection/v3"

_U64_MASK = (1 << 64) - 1
_PHILOX_WORDS = 4  # raw 64-bit words per Philox counter value
# Smallest piece worth a thread: the 4M-variate Monte Carlo chunks and the
# 256x256 blocks of `run` at d=256 split, its 256x64 blocks at d<=64 do not.
_PIECE_MIN = 2**15
_U_MAX = 1.0 - 2.0**-53  # largest double below 1


@dataclass
class RandomStream:
    """Single-owner random stream identified by (seed, path).

    Drawing advances internal state; hand substreams, not the stream itself,
    to concurrent workers.
    """

    seed: int
    path: Tuple[int, ...] = ()
    _bitgen: np.random.Philox = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.path = tuple(int(p) & _U64_MASK for p in self.path)
        ss = np.random.SeedSequence(int(self.seed) & _U64_MASK, spawn_key=self.path)
        self._bitgen = np.random.Philox(ss)


_pool = None
_pool_pid = None
_pool_lock = threading.Lock()


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _executor() -> ThreadPoolExecutor:
    """The process's piece pool; a forked child builds its own."""
    global _pool, _pool_pid
    with _pool_lock:
        if _pool_pid != os.getpid():
            _pool = ThreadPoolExecutor(max_workers=_cpu_count(),
                                       thread_name_prefix="esquad-normals")
            _pool_pid = os.getpid()
        return _pool


def _fill(bitgen: np.random.Philox, out: np.ndarray) -> None:
    """Standard normals from the next ``out.size`` raw words, in place."""
    np.random.Generator(bitgen).random(out=out)  # (raw >> 11) * 2**-53
    out += 2.0**-54
    np.minimum(out, _U_MAX, out=out)
    ndtri(out, out=out)


def _normals(stream: RandomStream, n: int) -> np.ndarray:
    """n standard normals from the stream's next n raw words."""
    out = np.empty(n)
    bitgen = stream._bitgen
    head = min(n, _PHILOX_WORDS - bitgen.state["buffer_pos"])
    _fill(bitgen, out[:head])
    # The buffer is now empty, so advancing a copy by k counter values skips
    # exactly k * 4 words.
    rest = n - head
    pieces = max(1, min(_cpu_count(), rest // _PIECE_MIN))
    starts = [rest // _PHILOX_WORDS * j // pieces for j in range(pieces)]
    gens = [bitgen] + [copy.deepcopy(bitgen).advance(k) for k in starts[1:]]
    cuts = [head + _PHILOX_WORDS * k for k in starts] + [n]
    slices = [out[a:b] for a, b in zip(cuts, cuts[1:])]
    futures = [_executor().submit(_fill, g, s)
               for g, s in zip(gens[1:], slices[1:])]
    _fill(gens[0], slices[0])
    for f in futures:
        f.result()
    stream._bitgen = gens[-1]
    return out


def normal_vector(stream: RandomStream, d: int) -> np.ndarray:
    """d independent standard normal variates; advances the stream."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return _normals(stream, d)


def normal_matrix(stream: RandomStream, rows: int, d: int) -> np.ndarray:
    """(rows, d) standard normals, bit-identical to `rows` stacked
    ``normal_vector`` calls on the same stream."""
    return _normals(stream, rows * d).reshape(rows, d)


def companion_stream(stream: RandomStream) -> RandomStream:
    """Stream keyed by one raw word of ``stream``; advances it by that word."""
    return RandomStream(int(stream._bitgen.random_raw()))


def chi_square_source(stream: RandomStream) -> np.random.Generator:
    """Companion generator for chi-square draws; advances the stream by one word."""
    return np.random.Generator(companion_stream(stream)._bitgen)


def chi_square_matrix(source: np.random.Generator, rows: int, dof) -> np.ndarray:
    """(rows, len(dof)) chi-square variates, column j with dof[j] > 0 degrees
    of freedom, bit-identical to ``rows`` stacked one-row calls."""
    return 2.0 * source.standard_gamma(0.5 * np.asarray(dof), size=(rows, len(dof)))


def substream(stream: RandomStream, label: int) -> RandomStream:
    """Independent stream derived deterministically from (seed, path, label)."""
    return RandomStream(stream.seed, stream.path + (int(label),))


def random_rotation(stream: RandomStream, d: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix.

    QR of a Gaussian matrix with the signs of diag(R) folded into Q, the
    standard construction for uniform orthogonal sampling.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    g = normal_matrix(stream, d, d)
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs
