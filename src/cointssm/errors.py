"""Exception hierarchy shared across the package.

Two families: input/validation problems (``ModelInputError`` subclasses,
mapped to exit code 2 by the CLI) and numeric/structural computation
failures (``ComputationError`` subclasses, exit code 3).
"""


class CointSSMError(Exception):
    """Base class for all package errors."""


class ModelInputError(CointSSMError, ValueError):
    """Invalid user input: bad dimensions, malformed documents, failed validation."""


class DimensionError(ModelInputError):
    """Matrix or vector dimensions incompatible with the requested operation."""


class ValidationError(ModelInputError):
    """A domain object violates its construction invariants."""


class RankError(ModelInputError):
    """An input matrix does not have the rank the operation requires."""


class ComputationError(CointSSMError, RuntimeError):
    """Numeric or structural failure discovered during computation."""


class StabilityError(ComputationError):
    """A matrix required to be Hurwitz (or Schur-stable) is not."""


class MultiplicityError(ComputationError):
    """The zero eigenvalue is not semisimple (Jordan block at zero)."""


class MinimalityError(ComputationError):
    """The state-space model is not minimal where minimality is required."""


class ConvergenceError(ComputationError):
    """A solver failed or returned a solution that fails verification."""


class ConditioningError(ComputationError):
    """A matrix that must be inverted or factorized is numerically singular."""


class NumericError(ComputationError):
    """Generic numeric failure (e.g. a covariance that is not PSD to tolerance)."""


class CointegrationRankError(ComputationError):
    """A computed rank disagrees with the cointegration structure of the model."""
