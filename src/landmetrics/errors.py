"""Exception taxonomy shared across the package.

Two broad families matter to callers (and to the CLI exit-code mapping):

* ``ValidationError`` and subclasses: the inputs are malformed, inconsistent,
  or insufficient.  The computation never started.
* ``NumericalError`` and subclasses: the inputs were well-formed but the
  computation could not produce a defensible answer (singular designs,
  no estimable window).
"""


class LandmetricsError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(LandmetricsError):
    """Malformed, inconsistent, or insufficient input data."""


class SchemaError(ValidationError):
    """A file or table did not match the expected schema."""


class DomainError(ValidationError):
    """A value lies outside the mathematical domain of the operation."""


class InsufficientDataError(ValidationError):
    """Not enough observations to perform the requested computation."""


class NumericalError(LandmetricsError):
    """A numeric procedure failed on otherwise well-formed input."""


class SingularDesignError(NumericalError):
    """Regression design matrix is rank deficient."""

    def __init__(self, message, columns=()):
        super().__init__(message)
        self.columns = tuple(columns)


class NoValidWindowError(NumericalError):
    """Every candidate estimation window failed."""
