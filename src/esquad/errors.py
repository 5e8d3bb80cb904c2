"""Exception types shared across the package."""

from contextlib import contextmanager


class EsquadError(Exception):
    """Base class for all esquad errors."""


class InvalidSpectrum(EsquadError):
    """Eigenvalue list violates positivity or emptiness constraints."""


class DimensionMismatch(EsquadError):
    """Vector or matrix length does not match the problem dimension."""


class DegenerateStart(EsquadError):
    """A run was started exactly at the optimum."""


class DegenerateState(EsquadError):
    """A state-dependent quantity is undefined because m equals the optimum."""


class NumericalFailure(EsquadError):
    """A numeric evaluation produced a non-finite value."""


class DomainError(EsquadError):
    """An argument lies outside the mathematical domain of the operation."""


class InfeasibleBound(EsquadError):
    """No admissible parameters exist for the requested bound.

    The message names the first inequality that failed, so callers can
    report a diagnosis instead of a bare error.
    """


class ConfigError(EsquadError):
    """A configuration document violates the expected schema."""


@contextmanager
def config_errors(what: str):
    """Raise any error of the block as a ConfigError on ``what``."""
    try:
        yield
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc
