"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`LoglossLabError`, so callers
can catch one type at the boundary.  Input problems additionally derive from
``ValueError`` to behave well with generic validation code.
"""

from __future__ import annotations

import numbers

__all__ = [
    "LoglossLabError",
    "ValidationError",
    "InfeasibleError",
    "DegenerateInstanceError",
    "ConvergenceError",
    "InstanceTooLargeError",
    "MappingError",
    "VerificationError",
]


class LoglossLabError(Exception):
    """Base class for all errors raised by loglosslab."""


class ValidationError(LoglossLabError, ValueError):
    """An input violates a documented precondition or type invariant."""


class InfeasibleError(LoglossLabError):
    """The requested target lies outside the feasible region."""


class DegenerateInstanceError(LoglossLabError):
    """The instance sits on a curve endpoint where the construction degenerates."""


class ConvergenceError(LoglossLabError):
    """An iterative routine failed to converge within its budget.

    Carries the last observed gap so the caller can judge how far off it was.
    """

    def __init__(self, message: str, gap: float | None = None):
        super().__init__(message)
        self.gap = gap


class InstanceTooLargeError(LoglossLabError):
    """An exact enumeration was requested beyond its guarded size."""


class MappingError(LoglossLabError):
    """A code could not be carried across the equivalence (row mismatch)."""


class VerificationError(LoglossLabError):
    """A quantity that must hold mathematically failed its numeric check."""


def _require_int(caller: str, name: str, value, minimum: int,
                 allow_none: bool = False) -> None:
    """Raise ValidationError unless value is an integer >= minimum.

    A bool is not an integer here; None passes only with ``allow_none``.
    """
    if allow_none and value is None:
        return
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= minimum):
        what = "None or an integer" if allow_none else "an integer"
        raise ValidationError(f"{caller}: {name} must be {what} >= {minimum}, got {value!r}")
