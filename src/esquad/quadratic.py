"""Convex quadratic objectives with monotone transforms and optional rotation.

A problem is ``f(x) = g(h(x))`` where the core is ``h(x) = 0.5 (x - x*)^T H (x - x*)``
and ``g`` is a strictly increasing transform.  ``H`` is represented by its
eigenvalues plus an optional orthogonal rotation, so the diagonal case stays the
fast path.  A rotation is drawn from its seed when the problem is built: the
seed is what a problem stores and serialises, and the matrix follows from it.
The factor 1/2 belongs to the core everywhere in this package; a
plain quadratic form without it is just another monotone transform of the core.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateState,
    DimensionMismatch,
    DomainError,
    InvalidSpectrum,
)

_TRANSFORM_NAMES = ("identity", "affine", "sqrt", "log1p", "cube")


def einsum_dot(a: np.ndarray, b: np.ndarray) -> float:
    """The dot product of two vectors as an einsum, whose summation order
    numpy's own C code fixes.  A BLAS dot (``np.dot``, ``np.linalg.norm``)
    would take OpenBLAS's kernel for the CPU, and kernels with and without
    FMA differ in the last bit; these sums reach trace and report bytes."""
    return float(np.einsum("i,i->", a, b))


@dataclass(frozen=True)
class MonotoneTransform:
    """Strictly increasing map applied to the nonnegative quadratic core.

    The set is a closed enumeration (no user callbacks) so problems serialize
    losslessly and runs stay reproducible.  ``affine`` is ``a*y + b`` with
    ``a > 0``; the other tags take no parameters.
    """

    name: str
    a: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        if self.name not in _TRANSFORM_NAMES:
            raise DomainError(f"unknown transform {self.name!r}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError("transform parameters must be finite")
        if self.name == "affine" and not self.a > 0:
            raise DomainError("affine transform requires a > 0")

    def apply(self, y: float) -> float:
        if self.name == "identity":
            return y
        if self.name == "affine":
            return self.a * y + self.b
        if self.name == "sqrt":
            return math.sqrt(y)
        if self.name == "log1p":
            return math.log1p(y)
        return y * y * y  # cube

    def to_json(self):
        if self.name == "affine":
            return {"name": "affine", "a": self.a, "b": self.b}
        return self.name

    @staticmethod
    def from_json(obj) -> "MonotoneTransform":
        """Inverse of ``to_json``: a tag, or an affine object with exactly the
        keys ``name``, ``a`` and ``b`` and finite numbers (not booleans) for
        ``a`` and ``b``; anything else raises ValueError."""
        if isinstance(obj, str):
            return MonotoneTransform(obj)
        if not (isinstance(obj, dict) and obj.get("name") == "affine"):
            raise ValueError(f"cannot parse transform {obj!r}")
        if set(obj) != {"name", "a", "b"}:
            raise ValueError(f"an affine transform has the keys a, b and name, not {sorted(obj)}")
        for key in ("a", "b"):
            value = obj[key]
            try:  # a string or null raises TypeError, an int beyond double range OverflowError
                finite = not isinstance(value, bool) and math.isfinite(value)
            except (TypeError, OverflowError):
                finite = False
            if not finite:
                raise ValueError(f"transform {key} must be a finite number, not {value!r}")
        return MonotoneTransform("affine", float(obj["a"]), float(obj["b"]))


IDENTITY = MonotoneTransform("identity")
SQRT = MonotoneTransform("sqrt")
LOG1P = MonotoneTransform("log1p")
CUBE = MonotoneTransform("cube")


@dataclass(frozen=True)
class Spectrum:
    """Positive eigenvalues of the Hessian, sorted descending."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise InvalidSpectrum("spectrum must be a nonempty 1-d array")
        if not np.all(np.isfinite(vals)) or not np.all(vals > 0):
            raise InvalidSpectrum("all eigenvalues must be finite and > 0")
        vals = np.sort(vals)[::-1].copy()
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def d(self) -> int:
        return int(self.eigenvalues.size)


@dataclass(frozen=True)
class SpectrumStats:
    """Scalar summaries of a spectrum used by every closed-form bound."""

    d: int
    L: float          # smallest eigenvalue
    U: float          # greatest eigenvalue
    trace: float      # sum of eigenvalues
    trace_sq: float   # sum of squared eigenvalues
    cond: float       # U / L
    ratio: float      # trace_sq / trace**2, the Gaussianity parameter of z^T H z


@dataclass(frozen=True)
class EigenGroups:
    """The distinct eigenvalues of H, ascending, with their multiplicities n_k
    and the group k of each eigenframe coordinate.

    Inside an eigenspace H is a multiple of the identity, so by symmetry the
    core and the offspring law at a centred point depend on its eigenframe
    coordinates u only through the group norms |u_k|.
    """

    eigenvalues: np.ndarray
    counts: np.ndarray
    index: np.ndarray

    def norms(self, u: np.ndarray) -> np.ndarray:
        """Group norms |u_k| of an eigenframe vector."""
        return np.sqrt(np.bincount(self.index, weights=u * u))


@dataclass(frozen=True)
class QuadraticProblem:
    """A member of the convex quadratic family, immutable after construction.

    ``rotation`` is drawn from ``rotation_seed`` by every construction, so
    also by ``dataclasses.replace``, to the same bits; None without a seed.
    """

    spectrum: Spectrum
    optimum: np.ndarray
    transform: MonotoneTransform = IDENTITY
    rotation_seed: Optional[int] = None
    rotation: Optional[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        opt = np.asarray(self.optimum, dtype=float)
        if opt.shape != (self.spectrum.d,):
            raise DimensionMismatch(
                f"optimum has shape {opt.shape}, expected ({self.spectrum.d},)"
            )
        if not np.all(np.isfinite(opt)):
            raise DomainError("optimum must be finite")
        opt = opt.copy()
        opt.setflags(write=False)
        object.__setattr__(self, "optimum", opt)
        rotation = None
        if self.rotation_seed is not None:
            from .stochastic import RandomStream, random_rotation

            object.__setattr__(self, "rotation_seed", int(self.rotation_seed))
            rotation = random_rotation(
                RandomStream(self.rotation_seed, path=(0x726F74,)), self.spectrum.d
            )
            rotation.setflags(write=False)
        object.__setattr__(self, "rotation", rotation)

    @property
    def d(self) -> int:
        return self.spectrum.d

    def _check_dim(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise DimensionMismatch(f"x has shape {x.shape}, expected ({self.d},)")
        return x

    def centered(self, m) -> np.ndarray:
        """y = m - x* of a state's mean, which must have length d, be finite
        and not be x*; every state is centred here."""
        y = self._check_dim(m) - self.optimum
        if not np.all(np.isfinite(y)):
            raise DomainError("m - x* must be finite")
        if not np.any(y):
            raise DegenerateState("m coincides with the optimum")
        return y

    def eigen_frame(self, y: np.ndarray) -> np.ndarray:
        """Coordinates of a centered vector in the eigenbasis of H."""
        if self.rotation is None:
            return y
        return self.rotation.T @ y

    def eigen_groups(self) -> EigenGroups:
        """The eigenframe coordinates grouped by distinct eigenvalue."""
        lam, index, counts = np.unique(self.spectrum.eigenvalues,
                                       return_inverse=True, return_counts=True)
        return EigenGroups(lam, counts, index)

    def core(self, x) -> float:
        """Untransformed core 0.5 (x - x*)^T H (x - x*)."""
        u = self.eigen_frame(self._check_dim(x) - self.optimum)
        return 0.5 * einsum_dot(self.spectrum.eigenvalues * u, u)

    def core_centered(self, y: np.ndarray) -> float:
        """Core of an already-centered vector, no dimension check."""
        u = self.eigen_frame(y)
        return 0.5 * einsum_dot(self.spectrum.eigenvalues * u, u)

    def core_centered_batch(self, Y: np.ndarray) -> np.ndarray:
        """Cores of a batch of centered row vectors."""
        U = Y if self.rotation is None else Y @ self.rotation
        return 0.5 * np.einsum("ij,j,ij->i", U, self.spectrum.eigenvalues, U)

    def log_core_centered(self, y: np.ndarray) -> float:
        """log of the core, stable when the core would under- or overflow.

        Factors out the largest component of sqrt(lambda) * u before squaring,
        so the result is finite whenever y itself is representable.
        Returns -inf for y = 0.  A run's first log f is this value.
        """
        u = self.eigen_frame(y)
        w = np.sqrt(self.spectrum.eigenvalues) * u
        mx = float(np.max(np.abs(w)))
        if mx == 0.0:
            return -math.inf
        s = w / mx
        return math.log(0.5) + 2.0 * math.log(mx) + math.log(einsum_dot(s, s))

    def evaluate(self, x) -> float:
        """Objective value g(core(x)) with the problem's transform."""
        return self.transform.apply(self.core(x))

    def gradient_core(self, x) -> np.ndarray:
        """Gradient H (x - x*) of the untransformed core."""
        u = self.eigen_frame(self._check_dim(x) - self.optimum)
        g = self.spectrum.eigenvalues * u
        if self.rotation is None:
            return g
        return self.rotation @ g

    def grad_norm_centered(self, y: np.ndarray) -> float:
        """Euclidean norm of the core gradient at a centered point."""
        u = self.eigen_frame(y)
        g = self.spectrum.eigenvalues * u
        return math.sqrt(einsum_dot(g, g))

    def log_grad_norm_centered(self, y: np.ndarray) -> float:
        """log of the core gradient norm, stable for tiny or huge y."""
        u = self.eigen_frame(y)
        g = self.spectrum.eigenvalues * u
        mx = float(np.max(np.abs(g)))
        if mx == 0.0:
            return -math.inf
        s = g / mx
        return math.log(mx) + 0.5 * math.log(einsum_dot(s, s))

    def to_json(self) -> dict:
        return {
            "eigenvalues": [float(v) for v in self.spectrum.eigenvalues],
            "optimum": [float(v) for v in self.optimum],
            "transform": self.transform.to_json(),
            "rotation_seed": self.rotation_seed,
        }


def make_problem(
    eigenvalues: Sequence[float],
    optimum,
    transform: MonotoneTransform = IDENTITY,
    rotation_seed: Optional[int] = None,
) -> QuadraticProblem:
    """Build a problem from eigenvalues, optimum, transform and optional rotation.

    ``optimum`` may be a vector of length d or the scalar 0 as shorthand for the
    origin.  When ``rotation_seed`` is given the Hessian eigenbasis is a seeded
    Haar-random orthogonal matrix; statistics and the sampling law of the ES do
    not depend on it, which is exactly what the rotation tests exercise.
    """
    spectrum = Spectrum(np.asarray(eigenvalues, dtype=float))
    if np.isscalar(optimum) and optimum == 0:
        optimum = np.zeros(spectrum.d)
    return QuadraticProblem(spectrum, optimum, transform, rotation_seed)


def problem_from_json(obj) -> QuadraticProblem:
    """Inverse of ``QuadraticProblem.to_json`` (accepts a dict or a JSON string).

    Only the keys of ``to_json`` are accepted, and ``rotation_seed`` must be
    an integer or null; anything else raises ValueError.
    """
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError("a problem must be a JSON object")
    unknown = set(obj) - {"eigenvalues", "optimum", "transform", "rotation_seed"}
    if unknown:
        raise ValueError(f"unknown problem keys: {sorted(unknown)}")
    seed = obj.get("rotation_seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ValueError(f"rotation_seed must be an integer or null, not {seed!r}")
    return make_problem(
        obj["eigenvalues"],
        np.asarray(obj["optimum"], dtype=float),
        MonotoneTransform.from_json(obj.get("transform", "identity")),
        obj.get("rotation_seed"),
    )


def spectrum_stats(p: QuadraticProblem) -> SpectrumStats:
    """Exact eigenvalue sums; unaffected by any rotation."""
    lam = p.spectrum.eigenvalues
    trace = float(np.sum(lam))
    trace_sq = float(np.sum(lam * lam))
    L = float(lam[-1])
    U = float(lam[0])
    return SpectrumStats(
        d=p.d,
        L=L,
        U=U,
        trace=trace,
        trace_sq=trace_sq,
        cond=U / L,
        ratio=trace_sq / (trace * trace),
    )


def sphere(d: int) -> list:
    """Eigenvalues of the unit sphere problem."""
    return [1.0] * d


def cigar(d: int, xi: float) -> list:
    """d-1 eigenvalues xi and one eigenvalue 1."""
    return [float(xi)] * (d - 1) + [1.0]


def discus(d: int, xi: float) -> list:
    """One eigenvalue xi and d-1 eigenvalues 1."""
    return [float(xi)] + [1.0] * (d - 1)


def ellipsoid(d: int, xi: float) -> list:
    """Log-uniform eigenvalues from xi down to 1."""
    if d == 1:
        return [float(xi)]
    return [float(xi) ** ((d - 1 - i) / (d - 1)) for i in range(d)]
