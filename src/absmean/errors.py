"""Exception types shared across the package, and its one argument policy.

Every scalar argument goes through `check_int` or `check_real`: an integer
is a Python or numpy integer, a real is a finite Python or numpy integer or
float, and a bool is neither.  Anything else raises DomainError (never
TypeError, ValueError or OverflowError), which the command line maps to
exit 2.  An array of reals (Hermite and polynomial arguments, mixture and
prior atoms and weights, the constrained-risk model, priors and rule) goes
through `check_real_array`, which refuses text, bools, complex numbers,
other objects and ragged lists by the same rule; a bool is never a number,
also as one entry of a list or tuple of numbers.  A sample
size n that only enters formulas is at most MAX_N, the largest integer a
double holds; a count that sizes an array or a loop is at most MAX_COUNT,
numpy's largest index.  Observation vectors are data, not
arguments: non-numeric, complex, ragged, 2-d or empty observations raise
DataError, and a non-finite one raises DataError with its index.

The command line maps DataError and RangeError (a result past the double
range) to exit 3, IntegrationError (the chi-square quadrature) to exit 4,
and every other AbsmeanError to exit 2.
"""

from __future__ import annotations

import math

import numpy as np

MAX_N = int(np.finfo(np.float64).max)
MAX_COUNT = int(np.iinfo(np.int64).max)
_BOOLS = frozenset((bool, np.bool_))


class AbsmeanError(Exception):
    """Base class for every error raised by this package."""


class DomainError(AbsmeanError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegreeOverflowError(DomainError):
    """A polynomial degree exceeds the supported range."""


class RangeError(AbsmeanError, OverflowError):
    """A result exceeds the representable floating-point range."""


class DataError(AbsmeanError, ValueError):
    """Input data is malformed: non-finite entries, unparseable file contents."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class IntegrationError(AbsmeanError, RuntimeError):
    """A quadrature's error estimate exceeds the requested tolerance,
    or its window needs more panels than the rule evaluates."""

    def __init__(self, message: str, achieved_tolerance: float | None = None):
        super().__init__(message)
        self.achieved_tolerance = achieved_tolerance


class ConstructionError(AbsmeanError, RuntimeError):
    """A constructive procedure produced an object that fails its own checks."""


class PreconditionError(AbsmeanError, ValueError):
    """A verification routine was invoked with its stated precondition violated."""


def _shown(value) -> str:
    """repr(value) on one short line; an integer past 15 digits in floating notation."""
    if isinstance(value, int) and abs(value) >= 10**15:
        return f"{value:.6g}" if abs(value) <= MAX_N else f"an integer of {value.bit_length()} bits"
    try:
        text = repr(value)
    except ValueError:   # holds an integer past Python's digit limit
        return f"a {type(value).__name__}"
    return text if len(text) <= 40 else text[:37] + "..."


def check_int(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """Return `value` as an int, or raise DomainError unless it is an integer in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {_shown(value)}")
    value = int(value)
    if low is not None and value < low:
        raise DomainError(f"{name} must be an integer >= {_shown(low)}, got {_shown(value)}")
    if high is not None and value > high:
        raise DomainError(f"{name} must be an integer <= {_shown(high)}, got {_shown(value)}")
    return value


def check_real(name: str, value, above: float | None = None) -> float:
    """Return `value` as a float, or raise DomainError unless it is a finite real > `above`."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise DomainError(f"{name} must be a real number, got {_shown(value)}")
    try:
        x = float(value)
    except OverflowError:   # an int beyond the double range
        x = math.inf
    if not math.isfinite(x) or (above is not None and not x > above):
        bound = "finite" if above is None else f"finite and > {above:g}"
        raise DomainError(f"{name} must be {bound}, got {_shown(value)}")
    return x


def check_real_array(name: str, values, error: type[AbsmeanError] = DomainError) -> np.ndarray:
    """`values` as a float64 array, or `error` unless every entry is a Python or numpy
    integer or float.  Finiteness and shape are the caller's to check."""
    try:
        arr = np.asarray(values)
        real = arr.dtype.kind in "iuf"
    except ValueError:   # ragged nesting
        real = False
    if real and isinstance(values, (list, tuple)):   # numpy reads [0.5, True] as two floats
        real = _BOOLS.isdisjoint(map(type, np.asarray(values, dtype=object).flat))
    if not real:
        raise error(f"{name} must hold real numbers, not text, bools, complex values or ragged lists")
    return arr.astype(np.float64, copy=False)
