"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`LoglossLabError`, so callers
can catch one type at the boundary.  Input problems additionally derive from
``ValueError`` to behave well with generic validation code.
"""

from __future__ import annotations

import math
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


def _require_int(caller: str, name: str, value, minimum: int, maximum: int | None = None,
                 allow_none: bool = False) -> None:
    """Raise ValidationError unless value is an integer >= minimum (<= maximum).

    A bool is not an integer here; None passes only with ``allow_none``.
    """
    if allow_none and value is None:
        return
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= minimum and (maximum is None or value <= maximum)):
        what = "None or an integer" if allow_none else "an integer"
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ValidationError(f"{caller}: {name} must be {what} {bound}, got {value!r}")


def _require_each(require, caller: str, name: str, values, *bounds) -> None:
    """Apply ``require`` to every entry of a sequence, naming entry i name[i]."""
    for i, value in enumerate(values):
        require(caller, f"{name}[{i}]", value, *bounds)


def _require_real(caller: str, name: str, value, low: float | None = None,
                  high: float | None = None, positive: bool = False) -> None:
    """Raise ValidationError unless value is a finite real, not a bool, in bounds.

    ``low`` and ``high`` are inclusive unless None; ``positive`` asks for > 0.
    """
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and (low is None or value >= low)
            and (high is None or value <= high) and (value > 0 or not positive)):
        rule = ("must be finite and positive" if positive
                else "must be finite" if low is None
                else f"must be finite and >= {low:g}" if high is None
                else f"must lie in [{low:g}, {high:g}]")
        raise ValidationError(f"{caller}: {name} {rule}, got {value!r}")


def _clamp_target(caller: str, name: str, value: float, low: float, high: float) -> float:
    """value clamped into [low, high]; InfeasibleError if it misses by over 1e-12."""
    if value < low - 1e-12 or value > high + 1e-12:
        raise InfeasibleError(f"{caller}: {name} = {value!r} outside the feasible "
                              f"interval [{low!r}, {high!r}]")
    return min(max(value, low), high)
