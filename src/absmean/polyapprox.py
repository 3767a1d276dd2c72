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
  well conditioned.  The best degree-2K error delta_{2K} satisfies
  2K * delta_{2K} -> 0.280169499 (the Bernstein constant) as K grows.

Numerical note: monomial coefficients of either polynomial grow like 2^{3K},
so Horner evaluation in the monomial basis loses about 2^{3K} * eps of
absolute accuracy near x = +-1 and is useless by K ~ 20.  Polynomials built
here therefore carry their even-Chebyshev representation and evaluate
through it; the monomial half-coefficients are kept as data, and
``coefficient_error`` bounds what their rounding costs.  One kernel,
numpy.polynomial.chebyshev, does all the Chebyshev work: chebval (Clenshaw)
evaluates, chebvander tabulates T_j(2x^2 - 1) for the exchange, chebder
differentiates for its Newton steps, and cheb2poly converts to monomial
half-coefficients (in exact Fractions for that bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.polynomial.chebyshev import cheb2poly, chebder, chebval, chebvander
from numpy.polynomial.polynomial import polyval

from .errors import (
    MAX_COUNT,
    ConditioningError,
    ConvergenceError,
    DegreeOverflowError,
    DomainError,
    check_int,
    check_real,
)

# limit value of 2K * delta_2K; used by tests and reporting, not by the
# algorithms themselves
BERNSTEIN_CONSTANT = 0.280169499

_MAX_GK = 60
_MAX_REMEZ_K = 40
_REMEZ_MAX_ITER = 200
_COND_LIMIT = 1e12
# exchange grid points per reference point, and Newton steps per extremum
_GRID_PER_REF = 16
_NEWTON_STEPS = 3


def _half_coeffs(cheb: np.ndarray) -> tuple[float, ...]:
    """Monomial half-coefficients of sum_j cheb[j] T_j(2x^2 - 1).

    T_j(2x^2 - 1) = T_{2j}(x), so the series is a Chebyshev series in x with
    zero odd slots; its monomial form has zero odd powers as well.
    """
    even = np.zeros(2 * len(cheb) - 1)
    even[::2] = cheb
    return tuple(float(c) for c in cheb2poly(even)[::2])


@dataclass(frozen=True)
class EvenPolynomial:
    """Even polynomial p(x) = sum_k half_coeffs[k] * x^{2k}.

    ``cheb_half_coeffs``, when present, holds coefficients b_j of the
    equivalent expansion sum_j b_j T_j(2x^2 - 1); evaluation prefers it.
    Evenness is structural: only even powers can be represented.
    """

    half_coeffs: tuple[float, ...]
    cheb_half_coeffs: tuple[float, ...] | None = field(default=None, compare=False)

    @property
    def half_degree(self) -> int:
        return len(self.half_coeffs) - 1

    @property
    def degree(self) -> int:
        return 2 * self.half_degree

    def __call__(self, x):
        if len(self.half_coeffs) == 0:
            raise DomainError("cannot evaluate an empty polynomial")
        arr = np.asarray(x, dtype=np.float64)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if self.cheb_half_coeffs is not None:
            out = chebval(2.0 * arr * arr - 1.0, self.cheb_half_coeffs)
        else:
            out = polyval(arr * arr, self.half_coeffs)
        return float(out[0]) if scalar else out


def build_G_K(K: int) -> EvenPolynomial:
    """Truncated Chebyshev expansion of |x| with K even harmonics."""
    K = check_int("K", K, low=1)
    if K > _MAX_GK:
        raise DegreeOverflowError(f"K = {K} exceeds the supported maximum {_MAX_GK}")
    cheb = np.zeros(K + 1)
    cheb[0] = 2.0 / math.pi
    for k in range(1, K + 1):
        cheb[k] = (4.0 / math.pi) * (-1.0) ** (k + 1) / (4.0 * k * k - 1.0)
    return EvenPolynomial(_half_coeffs(cheb), tuple(float(c) for c in cheb))


def uniform_error(poly: EvenPolynomial, grid_size: int = 100001) -> float:
    """max over a uniform grid on [-1, 1] of | |x| - poly(x) |."""
    if len(poly.half_coeffs) == 0:
        raise DomainError("empty polynomial")
    grid_size = check_int("grid_size", grid_size, 1001, MAX_COUNT)
    if grid_size % 2 == 0:
        raise DomainError(f"grid_size must be odd, got {grid_size}")
    x = np.linspace(-1.0, 1.0, grid_size)
    return float(np.max(np.abs(np.abs(x) - poly(x))))


def coefficient_error(poly: EvenPolynomial) -> float:
    """sum_k |half_coeffs[k] - c_k| for the exact monomial coefficients c_k of
    the Chebyshev form: the most their rounding moves the polynomial on [-1, 1]."""
    if poly.cheb_half_coeffs is None:
        raise DomainError("the coefficient error needs the Chebyshev form")
    even = np.full(2 * len(poly.cheb_half_coeffs) - 1, Fraction(0), dtype=object)
    even[::2] = [Fraction(c) for c in poly.cheb_half_coeffs]
    exact = cheb2poly(even)[::2]
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
    phi = np.column_stack([chebvander(2.0 * ref * ref - 1.0, K), (-1.0) ** np.arange(len(ref))])
    cond = float(np.linalg.cond(phi))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise ConditioningError(
            f"exchange system condition estimate {cond:.3e} exceeds {_COND_LIMIT:.0e}",
            condition_estimate=cond,
        )
    sol = np.linalg.solve(phi, ref)
    return sol[: K + 1], float(sol[K + 1]), cond


def _pick_candidates(e: np.ndarray, K: int) -> np.ndarray:
    """One grid index per sign segment of e, trimmed to the K+2 best."""
    s = np.where(e >= 0.0, 1, -1)
    boundaries = np.nonzero(np.diff(s))[0]
    starts = np.concatenate(([0], boundaries + 1))
    ends = np.concatenate((boundaries, [len(e) - 1]))
    idx = np.asarray([a + np.argmax(np.abs(e[a : b + 1])) for a, b in zip(starts, ends)])
    if len(idx) < K + 2:
        return idx
    vals = np.abs(e[idx])
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


def remez_best_approx(K: int, tol: float = 1e-12) -> BestApproxSolution:
    """Best uniform approximation of |x| on [-1, 1] by even polynomials of degree 2K.

    Remez exchange on [0, 1]: the reference starts at the Chebyshev extrema
    of degree 2K+2 mapped to [0, 1]; each iteration re-levels the error on
    the reference and exchanges it against the extrema of the error curve,
    until the spread of |error| over the new reference is below tol * delta.
    The curve is one product with T_j(2x^2 - 1), tabulated once per call on
    _GRID_PER_REF points per reference point at x = sin(pi s / 2), s uniform
    on [0, 1] (clustered toward 1 like the alternation points).  The largest
    sample of each sign segment then takes Newton steps on e'(x) = 0, with
    p'(x) = 4x q'(u) and p''(x) = 4q'(u) + 16x^2 q''(u) for u = 2x^2 - 1.
    """
    K = check_int("K", K, low=1)
    if K > _MAX_REMEZ_K:
        raise DegreeOverflowError(f"K = {K} exceeds the supported maximum {_MAX_REMEZ_K}")
    if not 1e-12 <= check_real("tol", tol) < 1.0:
        raise DomainError(f"tol must lie in [1e-12, 1), got {tol!r}")

    # sin(pi / 2) rounds to 1.0, so both endpoints are exact
    grid = np.sin(0.5 * np.pi * np.linspace(0.0, 1.0, _GRID_PER_REF * (K + 2) + 1))
    vander = chebvander(2.0 * grid * grid - 1.0, K)

    # extrema of T_{2K+2} that fall in [0, 1]: sin(pi i / (2(K+1))), i = 0..K+1
    ref = np.sin(np.pi * np.arange(K + 2) / (2.0 * (K + 1)))

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
        d1, d2 = chebder(b), chebder(b, 2)
        for _ in range(_NEWTON_STEPS):
            t = chebvander(2.0 * x * x - 1.0, K)
            q1 = t[:, :K] @ d1
            slope = 1.0 - 4.0 * x * q1                                  # e'(x)
            curve = 4.0 * q1 + 16.0 * x * x * (t[:, : d2.size] @ d2)    # -e''(x)
            x = np.clip(x + np.divide(slope, curve, out=np.zeros_like(x), where=curve != 0.0), lo, hi)
        ex = x - chebvander(2.0 * x * x - 1.0, K) @ b
        better = np.abs(ex) >= np.abs(es[inner])
        ref[inner] = np.where(better, x, ref[inner])
        es[inner] = np.where(better, ex, es[inner])
        vals = np.abs(es)
        delta = float(vals.max())
        last_spread = float(vals.max() - vals.min())
        if last_spread <= tol * max(delta, 1e-300):
            mirror = ref > 0.0
            points = np.concatenate([-ref[mirror][::-1], ref])
            signs = np.where(np.concatenate([es[mirror][::-1], es]) > 0, 1, -1)
            if np.any(signs[1:] == signs[:-1]):
                raise ConvergenceError("alternation signs failed to alternate", last_spread=last_spread)
            poly = EvenPolynomial(_half_coeffs(b), tuple(float(c) for c in b))
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
