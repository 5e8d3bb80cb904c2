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

The package exports these names (``__all__``); everything else is imported
from its module, e.g. ``esquad.bounds.b_high`` or ``esquad.es_core.step``:

* problems: QuadraticProblem, Spectrum, SpectrumStats, MonotoneTransform,
  IDENTITY, SQRT, LOG1P, CUBE, make_problem, problem_from_json,
  spectrum_stats, sphere, cigar, discus, ellipsoid
* algorithm: EsParams, EsState, RunTrace, alpha_schedule, run
* randomness: RandomStream, substream, GENERATOR_ID
* theory: TheoryConstants, constants
* measurement: RateEstimate, SweepProtocol, default_initial_state,
  measure_rate, sweep, sweep_csv, verify_suite
* errors: EsquadError, ConfigError, DomainError, DimensionMismatch,
  InvalidSpectrum, DegenerateState, InfeasibleBound, NumericalFailure
* version: VERSION
"""

from .bounds import TheoryConstants, constants
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
from .es_core import EsParams, EsState, RunTrace, alpha_schedule, run
from .experiments import (
    RateEstimate,
    SweepProtocol,
    default_initial_state,
    measure_rate,
    sweep,
    sweep_csv,
    verify_suite,
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
from .stochastic import GENERATOR_ID, RandomStream, substream
from .version import VERSION

__all__ = [
    "QuadraticProblem", "Spectrum", "SpectrumStats", "MonotoneTransform",
    "IDENTITY", "SQRT", "LOG1P", "CUBE", "make_problem", "problem_from_json",
    "spectrum_stats", "sphere", "cigar", "discus", "ellipsoid",
    "EsParams", "EsState", "RunTrace", "alpha_schedule", "run",
    "RandomStream", "substream", "GENERATOR_ID",
    "TheoryConstants", "constants",
    "RateEstimate", "SweepProtocol", "default_initial_state", "measure_rate",
    "sweep", "sweep_csv", "verify_suite",
    "EsquadError", "ConfigError", "DomainError", "DimensionMismatch",
    "InvalidSpectrum", "DegenerateState", "InfeasibleBound", "NumericalFailure",
    "VERSION",
]

__version__ = VERSION
