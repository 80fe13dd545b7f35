"""Exception hierarchy shared across the package, and the argument rules.

Everything raised on purpose derives from :class:`LoglossLabError`, so callers
can catch one type at the boundary.  Input problems additionally derive from
``ValueError`` to behave well with generic validation code.

A public function or method declares the rule of each argument once, on
its signature (PEP 593).  Each one that takes an argument carries
:func:`_checked`, which applies the rules before the body runs.  A record
declares the rule of each field on its annotation, and its
``__post_init__`` is one call to :func:`_check_fields`, which applies the
rules and then the record's checks between fields.
``Annotated[float, Real(...)]``, ``Annotated[int, Int(...)]``,
``Annotated[tuple, Seq(...)]`` and ``Annotated[np.ndarray, Array(...)]``
declare a rule, and a record class (a dataclass) asks for an instance of it;
the aliases below name the common rules.  A rule's ``check`` is its only
implementation: a body that checks a bound set by another argument calls
it too, as in ``Int(0, q.n - 1).check("x", x)``.  Values from outside the
program meet the same rules: a problem file's fields go to the records
that take them, and a CLI flag's value to the function it is passed to.

No message names the function or record that refused.  Every refusal
leaves through one of two owners that name it: the wrapper that
:func:`_checked` puts on each public function or method that takes an
argument, and :func:`_check_fields` for a record.  Each sets the error's
``caller`` on the way out, and a wrapper further out sets it again, so the
outermost public call is the one named: ``build_corresponding`` names a
refusal of the ``solve_avg`` it calls.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import numbers
import typing
from collections.abc import Mapping, Set
from typing import Annotated

import numpy as np

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

# How far a value may pass a bound that _require_order or _clamp_target checks.
_SLACK = 1e-12


class LoglossLabError(Exception):
    """Base class for all errors raised by loglosslab.

    ``caller`` is the public function or record that refused, set as the
    error leaves it; the message starts with it.
    """

    caller: str | None = None

    def __str__(self) -> str:
        return super().__str__() if self.caller is None else f"{self.caller}: {super().__str__()}"


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


def _require_size(name: str, size, other: str, expected) -> None:
    """Raise ValidationError unless ``size``, of ``name``, equals ``expected``, of ``other``.

    A size is usually an int; any two values that compare by ``!=`` will do,
    such as two alphabets.
    """
    if size != expected:
        raise ValidationError(f"{name} = {size} must equal {other} = {expected}")


def _require_order(name: str, value: float, other: str, bound: float) -> None:
    """Raise ValidationError if ``value``, of ``name``, exceeds ``bound``, of ``other``.

    The value may pass the bound by ``_SLACK``.
    """
    if value > bound + _SLACK:
        raise ValidationError(f"{name} = {value!r} must not exceed {other} = {bound!r}")


def _require_nonempty(name: str, values) -> None:
    """Raise ValidationError if the sequence ``values``, of ``name``, is empty."""
    if not values:
        raise ValidationError(f"{name} must not be empty")


def _clamp_target(name: str, value: float, low: float, high: float) -> float:
    """value clamped into [low, high]; InfeasibleError if it misses by over ``_SLACK``."""
    if value < low - _SLACK or value > high + _SLACK:
        raise InfeasibleError(f"{name} = {value!r} outside the feasible "
                              f"interval [{low!r}, {high!r}]")
    return min(max(value, low), high)


class Real(typing.NamedTuple):
    """A finite real, not a bool, in [low, high] (either bound unless None); > 0 if positive.

    An int too large for a float counts as not finite.  A numpy scalar is
    read, and passed on, as its Python scalar.
    """

    low: float | None = None
    high: float | None = None
    positive: bool = False

    def check(self, name: str, value):
        """``value``; ValidationError naming ``name`` if it breaks the rule."""
        value = value.item() if isinstance(value, np.generic) else value
        low, high = self.low, self.high
        try:
            finite = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                      and math.isfinite(value))
        except OverflowError:
            finite = False
        if not (finite and (low is None or value >= low) and (high is None or value <= high)
                and (value > 0 or not self.positive)):
            rule = ("must be finite and positive" if self.positive
                    else "must be finite" if low is None
                    else f"must be finite and >= {low:g}" if high is None
                    else f"must lie in [{low:g}, {high:g}]")
            raise ValidationError(f"{name} {rule}, got {value!r}")
        return value


class Int(typing.NamedTuple):
    """An integer, not a bool, >= minimum (and <= maximum unless None).

    A numpy scalar is read, and passed on, as its Python scalar.
    """

    minimum: int
    maximum: int | None = None

    def check(self, name: str, value):
        value = value.item() if isinstance(value, np.generic) else value
        minimum, maximum = self.minimum, self.maximum
        if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
                and value >= minimum and (maximum is None or value <= maximum)):
            bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
            raise ValidationError(f"{name} must be an integer {bound}, got {value!r}")
        return value


class Seq(typing.NamedTuple):
    """Any iterable but a string, a mapping or a set, passed on as a tuple of its entries.

    A mapping iterates as its keys and a set in no fixed order, so neither
    is a sequence.

    Each entry obeys ``entry``, a rule or a record class, unless it is None,
    and is passed on as that rule passes it; the tuple must hold an entry if
    ``nonempty``.
    """

    entry: object = None
    nonempty: bool = False

    def check(self, name: str, value) -> tuple:
        try:
            entries = None if isinstance(value, (str, bytes, Mapping, Set)) else iter(value)
        except TypeError:
            entries = None
        if entries is None:
            raise ValidationError(f"{name} must be a sequence, got {value!r}")
        entries = tuple(entries)
        if self.nonempty:
            _require_nonempty(name, entries)
        if self.entry is not None:
            rule = _Instance(self.entry) if isinstance(self.entry, type) else self.entry
            entries = tuple(rule.check(f"{name}[{i}]", entry) for i, entry in enumerate(entries))
        return entries


class Array(typing.NamedTuple):
    """A nonempty array of finite nonnegative floats with ``ndim`` axes, read-only.

    Its entries are real numbers: a bool, a string, None or a complex number
    is refused by its index before anything converts, and an int too large
    for a float counts as not finite.
    """

    ndim: int

    def check(self, name: str, value) -> np.ndarray:
        # A float or integer array holds numbers; anything else of the right
        # depth is read entry by entry.
        if not (isinstance(value, np.ndarray) and value.dtype.kind in "fiu"):
            entries = _convert(name, value, object)
            for i, entry in enumerate(entries.flat if entries.ndim == self.ndim else ()):
                if not isinstance(entry, numbers.Real) or isinstance(entry, bool):
                    index = ", ".join(map(str, np.unravel_index(i, entries.shape)))
                    raise ValidationError(f"{name}[{index}] must be a real number, "
                                          f"got {entry!r}")
        arr = _convert(name, value, float)
        if arr.ndim != self.ndim:
            raise ValidationError(f"{name} must be {self.ndim}-D, got shape {arr.shape}")
        _require_nonempty(name, arr.flat)
        if not np.isfinite(arr).all():
            raise ValidationError(f"{name} entries must be finite")
        if (arr < 0.0).any():
            raise ValidationError(f"{name} entries must be nonnegative")
        arr.setflags(write=False)
        return arr


def _convert(name: str, value, dtype) -> np.ndarray:
    """``value`` as a numpy array of ``dtype``; ValidationError naming ``name`` if it fails."""
    try:
        return np.array(value, dtype=dtype)
    except OverflowError as exc:
        raise ValidationError(f"{name} entries must be finite") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not convertible to floats: {exc}") from exc


class _Instance(typing.NamedTuple):
    """An instance of ``kind``, the rule of an argument or field annotated with a record class."""

    kind: type

    def check(self, name: str, value):
        if not isinstance(value, self.kind):
            raise ValidationError(f"{name} must be a {self.kind.__name__}, "
                                  f"got {type(value).__name__}")
        return value


Finite = Annotated[float, Real()]
NonNegative = Annotated[float, Real(0.0)]
Positive = Annotated[float, Real(positive=True)]
Probability = Annotated[float, Real(0.0, 1.0)]
Count = Annotated[int, Int(1)]
Seed = Annotated[int, Int(0)]


def _rule(hint):
    """The rule that a parameter's type hint declares, or None.

    ``Annotated[..., rule]`` declares ``rule``, and a record class an
    instance of it; any other hint, or none, declares no rule.
    """
    if typing.get_origin(hint) is Annotated:
        return hint.__metadata__[0]
    return _Instance(hint) if dataclasses.is_dataclass(hint) else None


@functools.cache
def _plan(fn) -> tuple:
    """(position, name, rule) of each parameter of ``fn`` that declares a rule.

    ``fn`` is a function or a record class, whose parameters are its fields.
    Read on first use, so the hints may name classes defined after ``fn``.
    """
    hints = typing.get_type_hints(fn, include_extras=True)
    plan = [(i, name, _rule(hints.get(name)))
            for i, name in enumerate(inspect.signature(fn).parameters)]
    return tuple(step for step in plan if step[2] is not None)


def _check_fields(record, *relations) -> None:
    """Check a frozen record: each field that declares a rule, then each relation.

    Each field's converted value is stored before ``relation(record)`` runs
    for each relation, a check between fields.  Errors name the record's
    class.
    """
    try:
        for _, name, rule in _plan(type(record)):
            object.__setattr__(record, name, rule.check(name, getattr(record, name)))
        for relation in relations:
            relation(record)
    except LoglossLabError as exc:
        exc.caller = type(record).__qualname__
        raise


def _checked(fn):
    """Decorate a public function or method so that its declared rules check each argument first.

    Each argument is converted by its rule before the body runs; an argument
    left at its default is not checked.  An error that leaves the call names
    it.  Private functions are never decorated, so the hot paths pay nothing.
    """
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            args = list(args)
            for i, name, rule in _plan(checked):
                if i < len(args):
                    args[i] = rule.check(name, args[i])
                elif name in kwargs:
                    kwargs[name] = rule.check(name, kwargs[name])
            return fn(*args, **kwargs)
        except LoglossLabError as exc:
            exc.caller = checked.__qualname__
            raise

    return checked
