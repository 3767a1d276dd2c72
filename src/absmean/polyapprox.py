"""Polynomial approximation of |x| on [-1, 1] by even polynomials.

Two constructions are provided:

* ``build_G_K`` -- the truncated Chebyshev expansion

      G_K(x) = (2/pi) T_0(x) + (4/pi) sum_{k=1..K} (-1)^{k+1} T_{2k}(x) / (4k^2 - 1),

  with explicit coefficients and sup error at most 2/(pi(2K+1)); the
  telescoped value at the origin is exactly G_K(0) = 2/(pi(2K+1)).

* ``remez_best_approx`` -- the true best uniform approximation G*_K of
  degree 2K, computed by Remez exchange.  Because |x| and the approximant
  are even, the exchange runs on the half interval [0, 1] against f(x) = x
  in the even-Chebyshev basis T_j(2x^2 - 1), which keeps every linear solve
  well conditioned.  It starts from the closed-form reference 0 and
  cos(pi j / (2K + 1/2)), j = 0..K, and levels in 4 iterations for every
  K >= 2 (158 over K = 1..40).  The best degree-2K error delta_{2K} satisfies
  2K * delta_{2K} -> 0.280169499 (the Bernstein constant) as K grows.

Numerical note: monomial coefficients of either polynomial grow like 2^{3K},
so Horner evaluation in the monomial basis loses about 2^{3K} * eps of
absolute accuracy near x = +-1 and is useless by K ~ 20.  An
``EvenPolynomial`` is therefore built from its even-Chebyshev coefficients
alone and evaluates through them, by numpy's chebval (Clenshaw).  Only the
estimators read its monomial half-coefficients, which numpy's cheb2poly
converts on first read; ``coefficient_error`` bounds what their rounding
costs.  Two helpers spare the exchange numpy.polynomial's per-call overhead:
``_cheb_der`` differentiates for the Newton steps by chebder's floating-point
operations in their order, so bit-identically, and ``_even_cheb_table``
tabulates T_j(2x^2 - 1) on [-1, 1], for the prior pair too, as
cos(j arccos u), T_0 and T_1 exactly: a fixed number of numpy calls for any
K, within about 5e-14 of numpy's chebvander recurrence up to K = 60.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np
from numpy.polynomial.chebyshev import cheb2poly, chebval

from .errors import (
    ConditioningError,
    ConvergenceError,
    DegreeOverflowError,
    DomainError,
    RangeError,
    check_int,
    check_real_array,
)

# limit value of 2K * delta_2K; used by tests and reporting, not by the
# algorithms themselves
BERNSTEIN_CONSTANT = 0.280169499

_MAX_GK = 60
_MAX_REMEZ_K = 40
_REMEZ_MAX_ITER = 200
# the exchange stops once the spread of |error| on the reference is below this times delta
_REMEZ_TOL = 1e-12
_COND_LIMIT = 1e12
# exchange grid points per reference point, and Newton steps per extremum
_GRID_PER_REF = 16
_NEWTON_STEPS = 3


def _cheb_to_monomial(half: np.ndarray) -> np.ndarray:
    """Monomial half-coefficients of sum_j half[j] T_j(2x^2 - 1), float or exact Fraction.

    T_j(2x^2 - 1) = T_{2j}(x): numpy's cheb2poly on the series in x with zero
    odd slots, keeping the even slots (trailing zeros trimmed, as cheb2poly does).
    """
    c = np.zeros(2 * len(half) - 1, dtype=half.dtype)
    c[::2] = half
    return cheb2poly(c)[::2]


def _even_cheb_table(x: np.ndarray, K: int) -> np.ndarray:
    """T_j(2x^2 - 1) for j = 0..K (K >= 1) at each x in [-1, 1], shape (len(x), K + 1).

    T_0 = 1 and T_1 = u = 2x^2 - 1 exactly; T_j(u) = cos(j arccos u) for
    j >= 2, in a fixed number of numpy calls whatever K is.  Against the
    recurrence T_j = 2u T_{j-1} - T_{j-2} (numpy's chebvander) each entry
    differs by at most about 5e-14 up to K = 60.
    """
    u = 2.0 * x * x - 1.0
    v = np.cos(np.multiply.outer(np.arccos(u), np.arange(K + 1.0)))
    v[:, 0] = 1.0
    v[:, 1] = u
    return v


def _cheb_der(c, m: int = 1) -> np.ndarray:
    """chebder(c, m) by chebder's loop, run on Python floats."""
    # chebder costs about 3x per call in the exchange loop (22 vs 8 us at K = 20)
    c = [float(v) for v in c]
    if m >= len(c):
        return np.array([c[0] * 0])
    for _ in range(m):
        n = len(c) - 1
        der = [0.0] * n
        for j in range(n, 2, -1):
            der[j - 1] = (2 * j) * c[j]
            c[j - 2] += (j * c[j]) / (j - 2)
        if n > 1:
            der[1] = 4 * c[2]
        der[0] = c[1]
        c = der
    return np.array(c)


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

    @property
    def degree(self) -> int:
        return 2 * (len(self.half_coeffs) - 1)

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

    The last three fields, ignored by equality, diagnose the exchange: its
    iterations, final spread of |error| and largest condition estimate.
    """

    poly: EvenPolynomial
    delta: float
    alternation_points: tuple[float, ...]
    alternation_signs: tuple[int, ...]   # sign of |x| - poly(x) at each point
    iterations: int = field(default=0, compare=False)
    spread: float = field(default=0.0, compare=False)
    max_condition: float = field(default=0.0, compare=False)

    @property
    def a0(self) -> tuple[float, ...]:
        """Alternation points where the error equals -delta."""
        return tuple(x for x, s in zip(self.alternation_points, self.alternation_signs) if s < 0)

    @property
    def a1(self) -> tuple[float, ...]:
        """Alternation points where the error equals +delta."""
        return tuple(x for x, s in zip(self.alternation_points, self.alternation_signs) if s > 0)


def _solve_levelled(ref: np.ndarray, K: int) -> tuple[np.ndarray, float, float]:
    """Solve the exchange system on one reference set.

    Finds b_0..b_K and lam with  sum_j b_j T_j(2r_i^2-1) + (-1)^i lam = r_i,
    so that the error r - p(r) equals (-1)^i * lam on the reference.
    """
    phi = np.column_stack([_even_cheb_table(ref, K), (-1.0) ** np.arange(len(ref))])
    cond = float(np.linalg.cond(phi))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise ConditioningError(
            f"exchange system condition estimate {cond:.3e} exceeds {_COND_LIMIT:.0e}",
            condition_estimate=cond,
        )
    sol = np.linalg.solve(phi, ref)
    return sol[: K + 1], float(sol[K + 1]), cond


def _pick_candidates(e: np.ndarray, K: int) -> np.ndarray:
    """One grid index per sign segment of e, trimmed to the K+2 best.

    A segment's index is the first of its largest |e|, as argmax gives it,
    and its first NaN if it holds one.
    """
    s = np.where(e >= 0.0, 1, -1)
    starts = np.concatenate(([0], np.flatnonzero(np.diff(s)) + 1))
    a = np.abs(e)
    peak = np.repeat(np.maximum.reduceat(a, starts), np.diff(starts, append=len(e)))
    hits = np.flatnonzero((a == peak) | np.isnan(a))
    idx = hits[np.searchsorted(hits, starts)]
    if len(idx) < K + 2:
        return idx
    vals = a[idx]
    best = int(np.argmax(vals))
    lo, hi = 0, len(idx) - 1
    while hi - lo + 1 > K + 2:
        if lo == best:
            hi -= 1
        elif hi == best:
            lo += 1
        elif vals[lo] <= vals[hi]:
            lo += 1
        else:
            hi -= 1
    return idx[lo : hi + 1]


def _start_reference(K: int) -> np.ndarray:
    """The exchange's first reference: 0 and x_j = cos(pi j / (2K + 1/2)), j = 0..K.

    Written as sin(pi s / 2), like the grid, with s = 0 and
    s_i = (i - 3/4) / (K + 1/4) for i = 1..K+1, so that 0.0 and 1.0 are exact.
    """
    return np.sin(0.5 * np.pi * np.concatenate(([0.0], (np.arange(1.0, K + 2.0) - 0.75) / (K + 0.25))))


def remez_best_approx(K: int) -> BestApproxSolution:
    """Best uniform approximation of |x| on [-1, 1] by even polynomials of degree 2K.

    Remez exchange on [0, 1].  The error curve is one product with
    T_j(2x^2 - 1) (``_even_cheb_table``, the cosine form), tabulated once per
    call on _GRID_PER_REF points per reference point at x = sin(pi s / 2),
    s uniform on [0, 1] (clustered toward 1 like the alternation points).
    The reference starts at the closed form 0 and x_j = cos(pi j / (2K + 1/2)),
    j = 0..K: K + 2 points, from which every K >= 2 levels in 4 iterations
    (K = 1 in 2).  Each iteration re-levels the error on the reference and
    exchanges it against the extrema of the error curve, one per sign segment
    (fewer than K + 2 segments raise ConvergenceError), until the spread of
    |error| over the new reference is below _REMEZ_TOL * delta.  The largest
    sample of each sign segment takes Newton steps on e'(x) = 0 in x, with
    p'(x) = 4x q'(u) and p''(x) = 4q'(u) + 16x^2 q''(u) for u = 2x^2 - 1.
    """
    K = check_int("K", K, low=1)
    if K > _MAX_REMEZ_K:
        raise DegreeOverflowError(f"K = {K} exceeds the supported maximum {_MAX_REMEZ_K}")

    # sin(pi / 2) rounds to 1.0, so both endpoints are exact
    grid = np.sin(0.5 * np.pi * np.linspace(0.0, 1.0, _GRID_PER_REF * (K + 2) + 1))
    vander = _even_cheb_table(grid, K)

    ref = _start_reference(K)
    last_spread = math.inf
    max_cond = 0.0
    for iteration in range(1, _REMEZ_MAX_ITER + 1):
        b, _, cond = _solve_levelled(ref, K)
        max_cond = max(max_cond, cond)
        e = grid - vander @ b
        idx = _pick_candidates(e, K)
        if len(idx) < K + 2:
            raise ConvergenceError(
                f"error curve shows only {len(idx)} sign segments, need {K + 2}",
                last_spread=last_spread,
            )
        # Newton within the neighbouring grid points; the endpoints stay, and a
        # candidate keeps its grid point where Newton does not increase |e|
        ref, es = grid[idx], e[idx]
        inner = (idx > 0) & (idx < grid.size - 1)
        lo, x, hi = grid[idx[inner] - 1], ref[inner], grid[idx[inner] + 1]
        d1, d2 = _cheb_der(b), _cheb_der(b, 2)
        for _ in range(_NEWTON_STEPS):
            t = _even_cheb_table(x, K)
            q1 = t[:, :K] @ d1
            slope = 1.0 - 4.0 * x * q1                                  # e'(x)
            curve = 4.0 * q1 + 16.0 * x * x * (t[:, : d2.size] @ d2)    # -e''(x)
            x = np.clip(x + np.divide(slope, curve, out=np.zeros_like(x), where=curve != 0.0), lo, hi)
        ex = x - _even_cheb_table(x, K) @ b
        better = np.abs(ex) >= np.abs(es[inner])
        ref[inner] = np.where(better, x, ref[inner])
        es[inner] = np.where(better, ex, es[inner])
        vals = np.abs(es)
        delta = float(vals.max())
        last_spread = float(vals.max() - vals.min())
        if last_spread <= _REMEZ_TOL * max(delta, 1e-300):
            mirror = ref > 0.0
            points = np.concatenate([-ref[mirror][::-1], ref])
            signs = np.where(np.concatenate([es[mirror][::-1], es]) > 0, 1, -1)
            if np.any(signs[1:] == signs[:-1]):
                raise ConvergenceError("alternation signs failed to alternate", last_spread=last_spread)
            poly = EvenPolynomial(tuple(float(c) for c in b))
            return BestApproxSolution(
                poly, delta, tuple(points.tolist()), tuple(signs.tolist()),
                iterations=iteration, spread=last_spread, max_condition=max_cond,
            )

    raise ConvergenceError(
        f"Remez exchange did not level within {_REMEZ_MAX_ITER} iterations",
        last_spread=last_spread,
    )


def bernstein_estimate(K_list) -> list[tuple[int, float]]:
    """Pairs (2K, 2K * delta_{2K}) for each K; approaches the Bernstein constant."""
    out = []
    for K in K_list:
        sol = remez_best_approx(K)
        out.append((sol.poly.degree, sol.poly.degree * sol.delta))
    return out
