"""Semantic exception types shared across the package.

Every contract violation raises one of these instead of a bare ValueError,
so callers (and the CLI exit-code mapping) can tell input problems apart
from resolution/noise-floor problems.
"""


class PolyGaussError(Exception):
    """Base class for all package errors."""


class ResolutionError(PolyGaussError):
    """The estimate is too coarse or too noisy to decide the question."""


class InputError(PolyGaussError, ValueError):
    """Malformed user input: bad JSON, bad config, inconsistent arguments."""


class ZeroPolynomial(PolyGaussError, ValueError):
    """An operation that requires a nonzero polynomial got the zero one."""


class DimensionMismatch(PolyGaussError, ValueError):
    """Operands or evaluation points live in different variable dimensions."""


class ZeroScale(PolyGaussError, ValueError):
    """Scaling a polynomial by zero is rejected (it destroys the class data)."""


class IndexOutOfRange(PolyGaussError, IndexError):
    """A 1-based variable index fell outside 1..n."""


class DegreeExceedsCap(PolyGaussError, ValueError):
    """A univariate polynomial exceeds the stated degree cap."""


class DegenerateRange(ResolutionError, ValueError):
    """All samples coincide; no density grid can be built."""


class UnsupportedKind(PolyGaussError, ValueError):
    """Unknown closed-form density kind."""


class EpsilonBelowResolution(ResolutionError, ValueError):
    """A shift-modulus probe is below twice the grid step."""


class ZeroVariance(ResolutionError, ValueError):
    """A check that needs a non-degenerate distribution got variance zero."""


class NonpositiveDistance(PolyGaussError, ValueError):
    """A distance expected to be positive was zero or negative."""


class InsufficientDecay(ResolutionError, ValueError):
    """All characteristic-function moduli sit in the Monte Carlo noise floor."""
