"""Exception types shared across the package.

The CLI maps these onto exit codes: precondition rejections exit with 2,
numerical failures with 1.
"""

from __future__ import annotations


class InvalidInputError(ValueError):
    """Malformed input: wrong shape, non-finite entries, bad parameters."""


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold."""


class GapTooSmallError(PreconditionError):
    """Spectral gap of an input is below the required minimum.

    Carries the measured half-widths so callers can report them.
    """

    def __init__(self, message: str, gaps: tuple[float, ...]):
        super().__init__(message)
        self.gaps = gaps


class BranchPointError(PreconditionError):
    """An eigenangle sits on the logarithm branch cut at angle 0."""


class NumericalError(RuntimeError):
    """A numerical routine failed or produced an out-of-tolerance residual."""
