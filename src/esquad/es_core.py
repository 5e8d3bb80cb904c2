"""The (1+1)-ES with success-based step-size adaptation.

One parent, one offspring from an isotropic Gaussian, greedy selection with
ties accepted, and multiplicative step-size control: sigma is scaled by
``alpha_up`` on success and by ``alpha_down`` on failure.  The stationary
success probability of that control is
``p_target = log(1/alpha_down) / log(alpha_up/alpha_down)``.

Selection compares the untransformed quadratic core.  Every supported
transform is strictly increasing, so the decision is identical to comparing
transformed objective values, and the comparison stays well defined in the
log domain long after raw objective values leave double range.

``step`` and ``run`` share one transition in decrement form: the offspring
y + sigma z of the centred parent y is accepted iff (ties accepted)
delta = sigma (Hy)^T z + 1/2 sigma^2 z^T H z <= 0.  Both terms are taken in
the eigenframe of H = R diag(lambda) R^T: each block of 256 variates is
mapped once to w = R^T z (w = z without a rotation) and q = 1/2 sum(lambda w^2),
and g = lambda R^T y changes only on acceptance, so a rejected step costs one
dot product g.w.  The parent stays in the original frame.  On acceptance the
core is evaluated again exactly and log f advances by log1p(delta/core) <= 0,
except for delta/core <= -1/2, where 1 + delta/core can round to 0: log f is
then taken from the new point, still monotone since the core at least halved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import DegenerateStart, NumericalFailure
from .ioutil import atomic_write_text, dump_json
from .quadratic import QuadraticProblem
from .stochastic import GENERATOR_ID, RandomStream, normal_matrix
from .version import VERSION

_LN2 = math.log(2.0)
# Rescale the internal frame when the working scale drifts this far from 1;
# pure powers of two keep the renormalization exact in floating point.
_RESCALE_LIMIT = 100
_SCALE_LOW, _SCALE_HIGH = 2.0 ** -(_RESCALE_LIMIT + 1), 2.0**_RESCALE_LIMIT
_BLOCK = 256


@dataclass(frozen=True)
class EsParams:
    """Step-size multipliers. Requires alpha_up > 1 > alpha_down > 0."""

    alpha_up: float
    alpha_down: float

    def __post_init__(self):
        if not (self.alpha_up > 1.0):
            raise ValueError("alpha_up must be > 1")
        if not (0.0 < self.alpha_down < 1.0):
            raise ValueError("alpha_down must be in (0, 1)")

    @property
    def log_up(self) -> float:
        return math.log(self.alpha_up)

    @property
    def log_down(self) -> float:
        return math.log(self.alpha_down)

    @property
    def log_ratio(self) -> float:
        """log(alpha_up / alpha_down) > 0."""
        return math.log(self.alpha_up / self.alpha_down)

    @property
    def p_target(self) -> float:
        return p_target(self)

    def to_json(self) -> dict:
        return {"alpha_up": self.alpha_up, "alpha_down": self.alpha_down}


def p_target(params: EsParams) -> float:
    """Success probability at which the expected log step size is stationary."""
    return math.log(1.0 / params.alpha_down) / params.log_ratio


def alpha_schedule(d: int, target: float = 0.2, c: float = 1.0) -> EsParams:
    """Dimension-scaled multipliers with an exact success target.

    alpha_up = exp(c/d) and alpha_down chosen so that p_target == target.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target must be in (0, 1)")
    return EsParams(
        alpha_up=math.exp(c / d),
        alpha_down=math.exp(-c * target / ((1.0 - target) * d)),
    )


@dataclass(frozen=True)
class EsState:
    """Algorithm state: search point m and log step size."""

    m: np.ndarray
    log_sigma: float

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float).copy()
        m.setflags(write=False)
        object.__setattr__(self, "m", m)
        if not (np.all(np.isfinite(m)) and math.isfinite(self.log_sigma)):
            raise NumericalFailure("state must be finite")

    @property
    def sigma(self) -> float:
        return math.exp(self.log_sigma)


@dataclass(frozen=True)
class StepOutcome:
    next: EsState
    accepted: bool
    log_f_ratio: float  # log core(m') - log core(m); 0.0 when rejected


def step(state: EsState, z: np.ndarray, problem: QuadraticProblem, params: EsParams) -> StepOutcome:
    """One transition: sample x = m + sigma z, accept iff core(x) <= core(m).

    z is mapped as a row of a full (256, d) variate block, as in ``run``, so
    steps on run's variates make its decisions and visit its points bit for bit.
    """
    block = np.zeros((_BLOCK, problem.d))
    block[0] = z
    tr = _walk(problem, state, params, 1, iter((block,)), record_m=True)
    if not tr.accepted[1]:
        return StepOutcome(EsState(state.m, float(tr.log_sigma[1])), False, 0.0)
    nxt = EsState(tr.m_centered[1] + problem.optimum, float(tr.log_sigma[1]))
    return StepOutcome(nxt, True, float(tr.log_f[1] - tr.log_f[0]))


@dataclass
class RunTrace:
    """Per-iteration record of a run.

    Row t holds the state after t steps; ``accepted[t]`` says whether the step
    from t-1 to t was accepted (row 0 carries 0).  ``log_f`` is the log of the
    untransformed core, tracked exactly even when the core itself would
    underflow a double.  ``log_norm`` is log ||m_t - x*||.  ``m_centered`` is
    recorded only on request.
    """

    t: np.ndarray
    log_f: np.ndarray
    log_sigma: np.ndarray
    accepted: np.ndarray
    log_norm: np.ndarray
    regime: Optional[List[str]] = None
    m_centered: Optional[np.ndarray] = None
    metadata: dict = field(default_factory=dict)
    hit_zero: bool = False

    def __len__(self) -> int:
        return int(self.t.size)

    def accept_count(self) -> int:
        return int(np.sum(self.accepted))

    def write_csv(self, path) -> None:
        """CSV with header t,log_f,log_sigma,accepted,regime plus a JSON sidecar."""
        rows = []
        for i in range(len(self)):
            rows.append(
                (
                    int(self.t[i]),
                    repr(float(self.log_f[i])),
                    repr(float(self.log_sigma[i])),
                    int(self.accepted[i]),
                    "" if self.regime is None else self.regime[i],
                )
            )
        text = "t,log_f,log_sigma,accepted,regime\n" + "".join(
            f"{r[0]},{r[1]},{r[2]},{r[3]},{r[4]}\n" for r in rows
        )
        atomic_write_text(path, text)
        atomic_write_text(str(path) + ".meta.json", dump_json(self.metadata))


def run(
    problem: QuadraticProblem,
    state0: EsState,
    params: EsParams,
    budget: int,
    stream: RandomStream,
    constants=None,
    record_m: bool = False,
) -> RunTrace:
    """Run the ES for ``budget`` steps and return the full trace.

    The internal state is kept centered at the optimum and renormalized by
    exact powers of two whenever its scale leaves [2**-100, 2**100]; the
    quadratic core is exactly scale-equivariant under that renormalization,
    so decisions are unaffected while log f is tracked far below the double
    underflow threshold.  The run halts early only if the core reaches an
    exact zero, which is flagged on the trace.

    When ``constants`` (a TheoryConstants bundle) is given, each row is also
    labeled with its step-size regime.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    blocks = (normal_matrix(stream, _BLOCK, problem.d) for _ in range(budget))
    trace = _walk(problem, state0, params, budget, blocks, constants, record_m)
    trace.metadata = {
        "version": VERSION,
        "generator_id": GENERATOR_ID,
        "seed": stream.seed,
        "path": list(stream.path),
        "params": params.to_json(),
        "problem": problem.to_json(),
        "budget": budget,
        "log_sigma0": state0.log_sigma,
        "hit_zero": trace.hit_zero,
    }
    return trace


def _walk(problem, state0, params, budget, blocks, constants=None, record_m=False):
    """The transition shared by ``step`` and ``run``.

    Takes up to ``budget`` steps from ``state0`` on the rows of ``blocks``, an
    iterator of (_BLOCK, d) variate arrays, and returns the trace without
    metadata.  Columns that change only on acceptance are written at accepted
    rows and carried forward.
    """
    lam = problem.spectrum.eigenvalues
    log_up, log_down = params.log_up, params.log_down
    y = np.asarray(state0.m, dtype=float) - problem.optimum
    if not np.any(y):
        raise DegenerateStart("started exactly at the optimum")
    log_sigma = float(state0.log_sigma)
    scale_exp = 0  # the centred point is y * 2**scale_exp

    def refresh(y):
        """Eigenframe gradient g, exact core and max |y| of a new parent."""
        u = problem.eigen_frame(y)
        g = lam * u
        return g, 0.5 * float(g.dot(u)), float(abs(y).max())

    n_rows = budget + 1
    log_f = np.empty(n_rows)
    accepted = np.zeros(n_rows, dtype=np.int8)
    log_norm = np.empty(n_rows)
    log_grad = np.empty(n_rows) if constants is not None else None
    m_hist = np.empty((n_rows, problem.d)) if record_m else None

    def keep(i):
        log_f[i] = cur_log_f
        log_norm[i] = _log_norm(y, y_max) + scale_exp * _LN2
        if log_grad is not None:
            log_grad[i] = problem.log_grad_norm_centered(y) + scale_exp * _LN2
        if m_hist is not None:
            m_hist[i] = y * 2.0**scale_exp

    g, core, y_max = refresh(y)
    cur_log_f = problem.log_core_centered(y)
    keep(0)
    zi = _BLOCK
    t = 0
    for t in range(1, n_rows):
        sigma_hat = math.exp(log_sigma - scale_exp * _LN2)
        scale = y_max if y_max > sigma_hat else sigma_hat
        if not _SCALE_LOW <= scale < _SCALE_HIGH:
            e = math.frexp(scale)[1]  # the scale is in [2**(e-1), 2**e)
            y = y * 2.0 ** float(-e)
            scale_exp += e
            g, core, y_max = refresh(y)
            sigma_hat = math.exp(log_sigma - scale_exp * _LN2)
        if zi == _BLOCK:
            z_block = next(blocks)
            w_block = z_block if problem.rotation is None else z_block @ problem.rotation
            q = (0.5 * np.einsum("ij,ij->i", w_block * lam, w_block)).tolist()
            zi = 0
        delta = sigma_hat * float(g.dot(w_block[zi])) + sigma_hat * sigma_hat * q[zi]
        if not math.isfinite(delta):
            raise NumericalFailure(f"non-finite core decrement at step {t}")
        if delta <= 0.0:
            y += sigma_hat * z_block[zi]
            core_old = core
            g, core, y_max = refresh(y)
            log_sigma += log_up
            accepted[t] = 1
            if core == 0.0 or delta <= -0.5 * core_old:
                cur_log_f = problem.log_core_centered(y) + 2.0 * scale_exp * _LN2
            else:
                cur_log_f += math.log1p(delta / core_old)
            keep(t)
            if core == 0.0:
                break
        else:
            log_sigma += log_down
        zi += 1

    n_kept = t + 1
    acc = accepted[:n_kept]
    last = np.maximum.accumulate(np.arange(n_kept) * acc)
    # cumsum adds in sequence, so these are the loop's own sums, bit for bit
    log_sig = np.cumsum(np.r_[state0.log_sigma, np.where(acc[1:], log_up, log_down)])
    regimes = None
    if constants is not None:
        from .potential import classify_from_logs

        stats = problem.stats()
        regimes = [classify_from_logs(f, lg, ls, stats, constants).value
                   for f, lg, ls in zip(log_f[last], log_grad[last], log_sig)]
    return RunTrace(
        t=np.arange(n_kept), log_f=log_f[last], log_sigma=log_sig, accepted=acc,
        log_norm=log_norm[last], regime=regimes,
        m_centered=None if m_hist is None else m_hist[last], hit_zero=core == 0.0,
    )


def _log_norm(y: np.ndarray, y_max: float) -> float:
    if y_max == 0.0:
        return -math.inf
    s = y / y_max
    return math.log(y_max) + 0.5 * math.log(float(np.dot(s, s)))
