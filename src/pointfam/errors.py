"""Exception types shared across the package."""

import cmath


class PointFamError(Exception):
    """Base class for all domain errors raised by pointfam."""


class ConstraintViolation(PointFamError):
    """The determinant constraint alpha*gamma - beta*delta = 1 is broken."""


class NonPositiveMass(PointFamError):
    """Mass must be strictly positive."""


class InvalidSlice(PointFamError):
    """A parameter slice is incompatible with the determinant constraint."""


class OnBoundary(PointFamError):
    """Two or more particle coordinates coincide; the configuration is undefined."""


class GrazingAngle(PointFamError):
    """Incidence parameter outside the open interval that keeps all rays propagating."""


class SingularDenominator(PointFamError):
    """The scattering denominator vanished; the input is not a scattering state."""


class SingularSystem(SingularDenominator):
    """The plane-wave matching system is singular (same condition as the denominator)."""


class NonBinding(PointFamError):
    """The requested coupling does not support a bound state."""


class InputError(PointFamError):
    """Malformed input payload (bad JSON, bad CSV, bad option value)."""


class UsageError(PointFamError):
    """Command line was not understood."""


class InvariantViolation(PointFamError):
    """An identity that the construction guarantees failed to hold."""


class NonFiniteResult(PointFamError):
    """A result is inf or NaN, e.g. after overflowing double precision."""

    @classmethod
    def check(cls, **values: complex) -> None:
        """Raise naming the first of the keyword values that is inf or NaN."""
        for name, value in values.items():
            if not cmath.isfinite(value):
                raise cls(f"{name} is {value!r}, not a finite number")
