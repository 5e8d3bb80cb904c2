"""(1+1)-ES with success-based step-size adaptation on convex quadratics.

The package has three layers:

* the algorithm itself (`es_core`, `stochastic`, `quadratic`): reproducible
  runs of the elitist single-parent ES on quadratic objectives, tracked in the
  log domain so arbitrarily long runs stay exact;
* the closed-form analysis (`bounds`, `potential`): success-probability
  sandwich, step-size threshold functions, potential function and per-regime
  drift targets, and the convergence-rate constants;
* verification (`montecarlo`, `experiments`, `cli`): one-step Monte Carlo
  estimators with standard errors, convergence-rate measurement, sweeps, and
  an end-to-end check suite.
"""

from .bounds import (
    TheoryConstants,
    b_high,
    b_low,
    constants,
    exp_moment_bound,
    normal_cdf,
    normal_quantile,
    q_h,
    quality_gain_bound,
    success_prob_sandwich,
    trace_condition,
    trace_condition_threshold,
)
from .errors import (
    ConfigError,
    DegenerateState,
    DimensionMismatch,
    DomainError,
    EsquadError,
    InfeasibleBound,
    InvalidSpectrum,
    NumericalFailure,
)
from .es_core import (
    EsParams,
    EsState,
    RunTrace,
    StepOutcome,
    alpha_schedule,
    run,
    step,
)
from .experiments import (
    RateEstimate,
    SweepProtocol,
    default_initial_state,
    default_sigma0,
    measure_rate,
    sweep,
    sweep_csv,
    verify_suite,
)
from .montecarlo import (
    McEstimate,
    estimate_drift_V,
    estimate_exp_abs,
    estimate_log_progress,
    estimate_success_prob,
)
from .potential import (
    RegimeLabel,
    classify,
    drift_target,
    potential_step_cap,
    potential_step_floor,
    potential_value,
)
from .quadratic import (
    IDENTITY,
    LOG1P,
    SQRT,
    CUBE,
    MonotoneTransform,
    QuadraticProblem,
    Spectrum,
    SpectrumStats,
    cigar,
    discus,
    ellipsoid,
    make_problem,
    problem_from_json,
    spectrum_stats,
    sphere,
)
from .stochastic import (
    GENERATOR_ID,
    RandomStream,
    normal_matrix,
    normal_vector,
    random_rotation,
    substream,
)
from .version import VERSION

__version__ = VERSION
