"""The package's two exception classes, one per CLI exit code.

The class a function raises decides how the CLI ends: an ``InputError``
exits 3, a ``ResolutionError`` exits 4.  The message says which condition
fired.  Both are ``ValueError``s.
"""


class InputError(ValueError):
    """Malformed or inconsistent input: bad JSON, bad config, a zero
    polynomial, a dimension mismatch, a nonpositive distance (exit 3)."""


class ResolutionError(ValueError):
    """The estimate is too coarse or too noisy to decide the question:
    constant samples, a probe below the grid step, zero variance, no decay
    above the noise floor (exit 4)."""
