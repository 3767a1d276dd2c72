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
  well conditioned.  It starts from a committed reference per K
  (``_exchange_start``): the one on which the exchange run from the closed
  form 0 and cos(pi j / (2K + 1/2)), j = 0..K, does its last levelling solve.
  So every K levels in one iteration (40 over K = 1..40; 158 from the closed
  form) with the same outputs bit for bit, and the loop still certifies each
  result on the full grid.  The best degree-2K error delta_{2K} satisfies
  2K * delta_{2K} -> 0.280169499 (the Bernstein constant) as K grows.

Numerical note: monomial coefficients of either polynomial grow like 2^{3K},
so Horner evaluation in the monomial basis loses about 2^{3K} * eps of
absolute accuracy near x = +-1 and is useless by K ~ 20.  An
``EvenPolynomial`` is therefore built from its even-Chebyshev coefficients
alone and evaluates through them, by numpy's chebval (Clenshaw).  Only the
estimators read its monomial half-coefficients, which numpy's cheb2poly
converts on first read; ``coefficient_error`` bounds what their rounding
costs.  Two helpers spare the exchange numpy.polynomial's per-call overhead:
``_cheb_der_matrix`` is chebder's recurrence as a matrix, so the Newton
steps take q' and q'' from one product per iteration, and ``_even_cheb_table``
tabulates T_j(2x^2 - 1) on [-1, 1] as cos(j arccos u), T_0 and T_1 exactly:
a fixed number of numpy calls for any K, within about 5e-14 of numpy's
chebvander recurrence up to K = 60.

Each exchange system is solved through one inverse, whose Frobenius norm
also gives the guard: ||A||_F ||A^-1||_F is at least the 2-norm condition
number and at most n times it for n unknowns, so no SVD is needed to refuse a
system past _COND_LIMIT.  A singular or non-finite system raises
ConditioningError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np
from numpy.polynomial.chebyshev import cheb2poly, chebval

from . import _exchange_start
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
# the exchange system's last column, (-1)^i
_ALTERNATING = (-1.0) ** np.arange(_MAX_REMEZ_K + 2)


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


def _cheb_der_matrix(K: int) -> np.ndarray:
    """D with D @ c the coefficients of d/du sum_j c_j T_j(u), j = 0..K, shape (K + 1, K + 1).

    D[i, j] = 2j where j > i and j - i is odd, row 0 halved (the last row is
    zero): chebder's recurrence summed in closed form.
    """
    i, j = np.ogrid[: K + 1, : K + 1]
    d = np.where((j > i) & ((j - i) % 2 == 1), 2.0 * j, 0.0)
    d[0] *= 0.5
    return d


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
    so that the error r - p(r) equals (-1)^i * lam on the reference, through
    one inverse of the (K+2)-square system Phi.  Also returns the condition
    estimate ||Phi||_F ||Phi^-1||_F: at least the 2-norm condition number and
    at most K + 2 times it, so a guard on it is never looser than one on the
    SVD's.  Past _COND_LIMIT, non-finite, or exactly singular: ConditioningError.
    """
    phi = np.empty((K + 2, K + 2))
    phi[:, : K + 1] = _even_cheb_table(ref, K)
    phi[:, K + 1] = _ALTERNATING[: K + 2]
    try:
        inv = np.linalg.inv(phi)
    except np.linalg.LinAlgError:
        raise ConditioningError("exchange system is singular", condition_estimate=math.inf) from None
    # Python floats: a product past the double range is inf, with no warning
    cond = math.sqrt(float(np.vdot(phi, phi)) * float(np.vdot(inv, inv)))
    if not cond <= _COND_LIMIT:   # NaN too
        raise ConditioningError(
            f"exchange system has condition estimate {cond:.3e}, past the limit {_COND_LIMIT:.0e}",
            condition_estimate=cond,
        )
    sol = inv @ ref
    return sol[: K + 1], float(sol[K + 1]), cond


def _pick_candidates(e: np.ndarray, K: int) -> np.ndarray:
    """One grid index per sign segment of e, trimmed to the K+2 best.

    A segment's index is the first of its largest |e|, as argmax gives it,
    and its first NaN if it holds one.
    """
    pos = e >= 0.0
    starts = np.flatnonzero(np.concatenate(([True], pos[1:] != pos[:-1])))
    ends = np.append(starts[1:], len(e))
    a = np.abs(e)
    peak = np.repeat(np.maximum.reduceat(a, starts), ends - starts)
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
    """The exchange's first reference: K + 2 increasing points of [0, 1], 0.0 and 1.0 exact.

    A fresh array of the committed ``_exchange_start.REFERENCES[K - 1]``.
    """
    return np.array(_exchange_start.REFERENCES[K - 1])


def remez_best_approx(K: int) -> BestApproxSolution:
    """Best uniform approximation of |x| on [-1, 1] by even polynomials of degree 2K.

    Remez exchange on [0, 1].  The error curve is one product with
    T_j(2x^2 - 1) (``_even_cheb_table``, the cosine form), tabulated once per
    call on _GRID_PER_REF points per reference point at x = sin(pi s / 2),
    s uniform on [0, 1] (clustered toward 1 like the alternation points).
    The reference starts at ``_start_reference(K)``, the committed reference
    of the last levelling solve from the closed form 0 and cos(pi j / (2K + 1/2)),
    j = 0..K, so every K levels in one iteration (the closed form took 4 for
    K >= 2, 2 for K = 1).  Each iteration re-levels the error on the reference and
    exchanges it against the extrema of the error curve, one per sign segment
    (fewer than K + 2 segments raise ConvergenceError), until the spread of
    |error| over the new reference is below _REMEZ_TOL * delta.  The largest
    sample of each sign segment takes Newton steps on e'(x) = 0 in x, with
    p'(x) = 4x q'(u) and p''(x) = 4q'(u) + 16x^2 q''(u) for u = 2x^2 - 1;
    q' and q'' come from the derivative matrices D and D^2, stacked once per
    call, so each step is one table and one matrix product.
    """
    K = check_int("K", K, low=1)
    if K > _MAX_REMEZ_K:
        raise DegreeOverflowError(f"K = {K} exceeds the supported maximum {_MAX_REMEZ_K}")

    # sin(pi / 2) rounds to 1.0, so both endpoints are exact
    grid = np.sin(0.5 * np.pi * np.linspace(0.0, 1.0, _GRID_PER_REF * (K + 2) + 1))
    vander = _even_cheb_table(grid, K)
    d = _cheb_der_matrix(K)
    derivs = np.stack([d, d @ d])

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
        coef = (derivs @ b).T                                           # q', q'' in u
        for _ in range(_NEWTON_STEPS):
            q = _even_cheb_table(x, K) @ coef
            slope = 1.0 - 4.0 * x * q[:, 0]                             # e'(x)
            curve = 4.0 * q[:, 0] + 16.0 * x * x * q[:, 1]              # -e''(x)
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
