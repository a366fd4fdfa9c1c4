"""Exception types shared across the library, and its one integer rule."""

from numbers import Integral


class CostapError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(CostapError, ValueError):
    """A configuration value breaks an invariant. Carries the field name."""

    def __init__(self, field: str, problem: str):
        self.field = field
        super().__init__(f"{field}: {problem}")


def check_int(field: str, value, minimum: int) -> None:
    """Raise ValidationError naming `field` unless `value` is an integer
    (a bool is not) of at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise ValidationError(field, f"must be an integer >= {minimum}, got {value!r}")


class ParseError(CostapError, ValueError):
    """A scenario or trace file could not be parsed."""


class NumericalError(CostapError):
    """Base class for runtime numerical failures (CLI exit code 3)."""


class NotHermitian(NumericalError):
    """Matrix asymmetry exceeds the Hermitian tolerance."""


class NotPSD(NumericalError):
    """An eigenvalue is below the negative PSD tolerance."""


class NoSignChange(NumericalError):
    """A root function is negative at the lower end of its bracket, or
    stays positive until the bracket expansion overflows."""


class SingularCovariance(NumericalError):
    """Covariance solve failed; the matrix is not usable as PD."""


class ZeroSteering(NumericalError):
    """Effective steering vector (G s or G^H w) is numerically zero."""


class Infeasible(NumericalError):
    """The Capon point already exceeds the power budget (r^2 < 0)."""


class NumericalFailure(NumericalError):
    """A solver produced a non-finite intermediate quantity."""


class ZeroWaveform(NumericalError):
    """Rescaling requested for a numerically zero waveform."""
