"""Exception types shared across the package."""

import math


class CylscaleError(Exception):
    """Base class for all package errors."""


class DomainError(CylscaleError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class DegenerateInputError(DomainError):
    """Inputs make a derived quantity undefined (division by zero)."""


class InfeasibleDeltaError(DomainError):
    """The admissible interval for the construction parameter delta is empty."""


class SingularPointError(CylscaleError, ValueError):
    """A profile was evaluated on its singular locus."""


class ResolutionError(CylscaleError, ValueError):
    """Grid resolution below the supported minimum."""


class NonFiniteSampleError(CylscaleError, ValueError):
    """A profile produced non-finite values inside the sampled region."""


class RadiusError(CylscaleError, ValueError):
    """A requested radius exceeds the field's cylinder, or its powers leave the
    float range."""


class DivergentIntegralError(CylscaleError, ValueError):
    """Exponents make an integral infinite."""


class SupportError(CylscaleError, ValueError):
    """A test function's support meets the singular locus."""


class GeometryError(CylscaleError, ValueError):
    """A scaled domain does not contain the requested cylinder."""


class FileFormatError(CylscaleError, ValueError):
    """A data file does not follow the format its reader expects."""


class NonFiniteResultError(CylscaleError, ValueError):
    """A computed result is NaN or infinite, so no artifact can hold it."""


def _finite(compute, describe):
    """compute(), a float, once it is finite; an OverflowError or a NaN or
    infinite result raises NonFiniteResultError(describe())."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise NonFiniteResultError(describe())
    return value
