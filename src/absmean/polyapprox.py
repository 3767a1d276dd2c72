"""Polynomial approximation of |x| on [-1, 1] by even polynomials.

Two constructions are provided:

* ``build_G_K`` -- the truncated Chebyshev expansion

      G_K(x) = (2/pi) T_0(x) + (4/pi) sum_{k=1..K} (-1)^{k+1} T_{2k}(x) / (4k^2 - 1),

  with explicit coefficients and sup error at most 2/(pi(2K+1)); the
  telescoped value at the origin is exactly G_K(0) = 2/(pi(2K+1)).

* ``remez_best_approx`` -- the true best uniform approximation G*_K of
  degree 2K, for K = 1..40, read from the committed table ``_best_approx``:
  delta_{2K}, the Chebyshev coefficients and the alternation points.  The
  Remez exchange in tests/remez.py derives that table and a test requires it
  bit for bit; another test certifies each stored delta between a de la
  Vallee Poussin and a Bernstein bound.  The best degree-2K error satisfies
  2K * delta_{2K} -> 0.280169499 (the Bernstein constant) as K grows.

Numerical note: monomial coefficients of either polynomial grow like 2^{3K},
so Horner evaluation in the monomial basis loses about 2^{3K} * eps of
absolute accuracy near x = +-1 and is useless by K ~ 20.  An
``EvenPolynomial`` is therefore built from its even-Chebyshev coefficients
alone and evaluates through them, by numpy's chebval (Clenshaw).  Only the
estimators read its monomial half-coefficients, which numpy's cheb2poly
converts on first read; ``coefficient_error`` bounds what their rounding
costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from numpy.polynomial.chebyshev import cheb2poly, chebval

from . import _best_approx
from .errors import DegreeOverflowError, DomainError, RangeError, check_int, check_real_array

# limit value of 2K * delta_2K; used by tests and reporting, not by the
# algorithms themselves
BERNSTEIN_CONSTANT = 0.280169499

_MAX_GK = 60
_MAX_REMEZ_K = 40


def _cheb_to_monomial(half: np.ndarray) -> np.ndarray:
    """Monomial half-coefficients of sum_j half[j] T_j(2x^2 - 1), float or exact Fraction.

    T_j(2x^2 - 1) = T_{2j}(x): numpy's cheb2poly on the series in x with zero
    odd slots, keeping the even slots (trailing zeros trimmed, as cheb2poly does).
    """
    c = np.zeros(2 * len(half) - 1, dtype=half.dtype)
    c[::2] = half
    return cheb2poly(c)[::2]


@dataclass(frozen=True)
class EvenPolynomial:
    """Even polynomial p(x) = sum_j cheb_half_coeffs[j] * T_j(2x^2 - 1).

    Built from those Chebyshev coefficients alone, and evaluated through
    them.  ``half_coeffs``, the monomial form p(x) = sum_k half_coeffs[k] *
    x^{2k} that only the estimators read, is converted on first read
    (trailing zero coefficients trimmed, as numpy's cheb2poly does).
    Evenness is structural: only even powers can be represented.
    """

    cheb_half_coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.cheb_half_coeffs) == 0:
            raise DomainError("an even polynomial needs at least one coefficient")

    @cached_property
    def half_coeffs(self) -> tuple[float, ...]:
        return tuple(_cheb_to_monomial(np.asarray(self.cheb_half_coeffs, dtype=np.float64)).tolist())

    def __call__(self, x):
        """p(x) at finite real x (DomainError otherwise); RangeError where it overflows."""
        arr = check_real_array("x", x)
        if not np.all(np.isfinite(arr)):
            raise DomainError("x must be finite")
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        with np.errstate(over="ignore", invalid="ignore"):
            out = chebval(2.0 * arr * arr - 1.0, self.cheb_half_coeffs)
        if not np.all(np.isfinite(out)):
            raise RangeError("p(x) overflows the double range")
        return float(out[0]) if scalar else out


def build_G_K(K: int) -> EvenPolynomial:
    """Truncated Chebyshev expansion of |x| with K even harmonics.

    Its coefficients in T_j(2x^2 - 1) are 2/pi, then (4/pi)(-1)^(k+1)/(4k^2 - 1).
    """
    K = check_int("K", K, low=1)
    if K > _MAX_GK:
        raise DegreeOverflowError(f"K = {K} exceeds the supported maximum {_MAX_GK}")
    k = np.arange(K + 1.0)
    cheb = (4.0 / math.pi) * np.where(k % 2 == 1, 1.0, -1.0) / (4.0 * k * k - 1.0)
    cheb[0] = 2.0 / math.pi
    return EvenPolynomial(tuple(cheb.tolist()))


def uniform_error(poly: EvenPolynomial) -> float:
    """max of | |x| - poly(x) | over 100001 equally spaced x in [-1, 1], 0 and both ends included."""
    x = np.linspace(-1.0, 1.0, 100001)
    return float(np.max(np.abs(np.abs(x) - poly(x))))


def coefficient_error(poly: EvenPolynomial) -> float:
    """sum_k |half_coeffs[k] - c_k| for the exact monomial coefficients c_k of
    the Chebyshev form: the most their rounding moves the polynomial on [-1, 1]."""
    exact = _cheb_to_monomial(np.array([Fraction(c) for c in poly.cheb_half_coeffs], dtype=object))
    return float(sum(abs(Fraction(g) - c) for g, c in zip(poly.half_coeffs, exact)))


@dataclass(frozen=True)
class BestApproxSolution:
    """Best uniform approximation of |x| by an even polynomial of degree 2K.

    ``spread`` is the final spread of |error| over the alternation points in
    the exchange that derived the solution, stored with it.
    """

    poly: EvenPolynomial
    delta: float
    alternation_points: tuple[float, ...]
    alternation_signs: tuple[int, ...]   # sign of |x| - poly(x) at each point
    spread: float


def remez_best_approx(K: int) -> BestApproxSolution:
    """Best uniform approximation of |x| on [-1, 1] by even polynomials of degree 2K.

    Read from the committed table ``_best_approx.SOLUTIONS[K - 1]``: delta,
    spread, the Chebyshev coefficients and the half alternation points
    0 = t_0 < ... < t_{K+1} = 1, where the error |x| - p(x) has the sign
    (-1)^(j+1).  The full point set is the half set mirrored, -t_{K+1} .. -t_1
    followed by t_0 .. t_{K+1}, and so are the signs.
    """
    K = check_int("K", K, low=1)
    if K > _MAX_REMEZ_K:
        raise DegreeOverflowError(f"K = {K} exceeds the supported maximum {_MAX_REMEZ_K}")
    delta, spread, cheb, half = _best_approx.SOLUTIONS[K - 1]
    half_signs = tuple(1 if j % 2 else -1 for j in range(K + 2))
    points = tuple(-t for t in half[:0:-1]) + half
    return BestApproxSolution(EvenPolynomial(cheb), delta, points, half_signs[:0:-1] + half_signs, spread)
