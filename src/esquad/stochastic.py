"""Deterministic, splittable randomness for all stochastic components.

Streams are built on the counter-based Philox generator keyed through
``numpy.random.SeedSequence(seed, spawn_key=path)``, so a stream is fully
identified by its ``(seed, path)`` pair and distinct paths are statistically
independent.  Normal variates are produced by inverting the standard normal
CDF (``ndtri`` from ``esquad._special``: the same compiled ``scipy.special``
ufunc object however it is loaded) on the 53-bit uniform
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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np
from ._special import ndtri

GENERATOR_ID = "philox-seedseq+invcdf+chi2-gamma-rejection/v3"

_U64_MASK = (1 << 64) - 1
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


def _normals(stream: RandomStream, n: int) -> np.ndarray:
    """n standard normals from the stream's next n raw words."""
    out = np.random.Generator(stream._bitgen).random(n)  # (raw >> 11) * 2**-53
    out += 2.0**-54
    np.minimum(out, _U_MAX, out=out)
    return ndtri(out, out=out)


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
    of freedom, bit-identical to ``rows`` stacked one-row calls.  One column
    passes its shape as a float: numpy's scalar-shape path draws the same
    variates as the array path, in less time."""
    shape = float(0.5 * dof[0]) if len(dof) == 1 else 0.5 * np.asarray(dof)
    return 2.0 * source.standard_gamma(shape, size=(rows, len(dof)))


def substream(stream: RandomStream, label: int) -> RandomStream:
    """Independent stream derived deterministically from (seed, path, label)."""
    return RandomStream(stream.seed, stream.path + (int(label),))


def random_rotation(stream: RandomStream, d: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix.

    QR of a Gaussian matrix with the signs of diag(R) folded into Q, the
    standard construction for uniform orthogonal sampling.  The QR is
    LAPACK's, whose last bits depend on the BLAS kernel picked for the CPU,
    so a rotation, and the trace of a rotated problem, is reproducible per
    kernel only.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    g = normal_matrix(stream, d, d)
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs
