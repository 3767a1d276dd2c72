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
through it; the monomial half-coefficients are kept as data.  One kernel,
numpy.polynomial.chebyshev, does all the Chebyshev work: chebval (Clenshaw)
evaluates, chebvander tabulates T_j(2x^2 - 1) for the exchange system, and
cheb2poly converts to monomial half-coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import cheb2poly, chebval, chebvander
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


@dataclass(frozen=True)
class BestApproxSolution:
    """Best uniform approximation of |x| by an even polynomial of degree 2K."""

    poly: EvenPolynomial
    delta: float
    alternation_points: tuple[float, ...]
    alternation_signs: tuple[int, ...]   # sign of |x| - poly(x) at each point

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


def _pick_candidates(x: np.ndarray, e: np.ndarray, K: int) -> list[int]:
    """One grid index per sign segment of e, trimmed to the K+2 best."""
    s = np.where(e >= 0.0, 1, -1)
    boundaries = np.nonzero(np.diff(s))[0]
    starts = np.concatenate(([0], boundaries + 1))
    ends = np.concatenate((boundaries, [len(e) - 1]))
    idx = [int(a + np.argmax(np.abs(e[a : b + 1]))) for a, b in zip(starts, ends)]
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
    of degree 2K+2 mapped to [0, 1], each iteration re-levels the error on
    the reference and exchanges it against the extrema of the dense-grid
    error, and the loop stops once the spread of |error| over the new
    reference falls below tol * delta.
    """
    K = check_int("K", K, low=1)
    if K > _MAX_REMEZ_K:
        raise DegreeOverflowError(f"K = {K} exceeds the supported maximum {_MAX_REMEZ_K}")
    if not 1e-12 <= check_real("tol", tol) < 1.0:
        raise DomainError(f"tol must lie in [1e-12, 1), got {tol!r}")

    npts = max(50001, 2500 * (K + 2) + 1)
    grid = np.linspace(0.0, 1.0, npts)
    h = grid[1] - grid[0]

    # extrema of T_{2K+2} that fall in [0, 1]: sin(pi i / (2(K+1))), i = 0..K+1
    ref = np.sin(np.pi * np.arange(K + 2) / (2.0 * (K + 1)))

    last_spread = math.inf
    for _ in range(_REMEZ_MAX_ITER):
        b, lam, _ = _solve_levelled(ref, K)
        e = grid - chebval(2.0 * grid * grid - 1.0, b)
        idx = _pick_candidates(grid, e, K)
        if len(idx) < K + 2:
            raise ConvergenceError(
                f"error curve shows only {len(idx)} sign segments, need {K + 2}",
                last_spread=last_spread,
            )
        # parabolic refinement of interior extrema
        xs, es = [], []
        for i in idx:
            if 0 < i < npts - 1:
                d2 = e[i - 1] - 2.0 * e[i] + e[i + 1]
                if d2 != 0.0:
                    dx = 0.5 * h * (e[i - 1] - e[i + 1]) / d2
                    dx = float(np.clip(dx, -h, h))
                    xc = grid[i] + dx
                    ec = xc - float(chebval(2.0 * xc * xc - 1.0, b))
                    if abs(ec) >= abs(e[i]):
                        xs.append(float(xc))
                        es.append(float(ec))
                        continue
            xs.append(float(grid[i]))
            es.append(float(e[i]))
        vals = np.abs(es)
        delta = float(vals.max())
        last_spread = float(vals.max() - vals.min())
        ref = np.asarray(xs)
        if last_spread <= tol * max(delta, 1e-300):
            signs = [1 if val > 0 else -1 for val in es]
            half_pos = list(zip(xs, signs))
            mirrored = [(-x, s) for x, s in half_pos if x > 0.0][::-1]
            full = mirrored + half_pos
            points = tuple(p for p, _ in full)
            full_signs = tuple(s for _, s in full)
            for a, bsign in zip(full_signs, full_signs[1:]):
                if a == bsign:
                    raise ConvergenceError("alternation signs failed to alternate", last_spread=last_spread)
            poly = EvenPolynomial(_half_coeffs(b), tuple(float(c) for c in b))
            return BestApproxSolution(poly, delta, points, full_signs)

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
