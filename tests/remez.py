"""The Remez exchange that derives ``src/absmean/_best_approx.py``, and its generator.

The library reads the best even approximations of |x| for K = 1..40 from that
committed table; this module is how the table is made.  The exchange runs on
the half interval [0, 1] against f(x) = x in the even-Chebyshev basis
T_j(2x^2 - 1), which keeps every linear solve well conditioned.  It starts
from the closed form 0 and cos(pi j / (2K + 1/2)), j = 0..K, where every
K >= 2 levels in 4 iterations (K = 1 in 2; 158 over K = 1..40).  Each
iteration levels the error on the reference, samples the error curve on
_GRID_PER_REF points per reference point at x = sin(pi s / 2), s uniform on
[0, 1] (clustered toward 1 like the alternation points), and exchanges the
reference against the extrema of that curve, one per sign segment (fewer
than K + 2 segments raise ConvergenceError).  The largest sample of each
segment takes _NEWTON_STEPS Newton steps on e'(x) = 0, with
p'(x) = 4x q'(u) and p''(x) = 4q'(u) + 16x^2 q''(u) for u = 2x^2 - 1; q' and
q'' come from the derivative matrices D and D^2, stacked once per call.  The
loop stops once the spread of |error| over the new reference is below
_REMEZ_TOL * delta.

Each exchange system is solved through one inverse, whose Frobenius norm also
gives the guard: ||A||_F ||A^-1||_F is at least the 2-norm condition number
and at most n times it for n unknowns, so no SVD is needed to refuse a system
past _COND_LIMIT.  A singular or non-finite system raises ConditioningError.

Rewrite the table with

    PYTHONPATH=src python tests/remez.py

and check it with

    PYTHONPATH=src python -m pytest tests/test_polyapprox.py -k derives
"""

from __future__ import annotations

import math
import textwrap
from pathlib import Path

import numpy as np

from absmean.polyapprox import _MAX_REMEZ_K, BestApproxSolution, EvenPolynomial

_REMEZ_MAX_ITER = 200
# the exchange stops once the spread of |error| on the reference is below this times delta
_REMEZ_TOL = 1e-12
_COND_LIMIT = 1e12
# exchange grid points per reference point, and Newton steps per extremum
_GRID_PER_REF = 16
_NEWTON_STEPS = 3
# the exchange system's last column, (-1)^i
_ALTERNATING = (-1.0) ** np.arange(_MAX_REMEZ_K + 2)


class ConvergenceError(RuntimeError):
    """The exchange exhausted its iterations or lost its alternation."""

    def __init__(self, message: str, last_spread: float | None = None):
        super().__init__(message)
        self.last_spread = last_spread


class ConditioningError(RuntimeError):
    """An exchange system is singular, non-finite or too ill-conditioned to trust."""

    def __init__(self, message: str, condition_estimate: float | None = None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


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


def _closed_form_start(K: int) -> np.ndarray:
    """The reference that derives the table: 0 and x_j = cos(pi j / (2K + 1/2)), j = 0..K.

    Written as sin(pi s / 2), like the grid, with s = 0 and
    s_i = (i - 3/4) / (K + 1/4) for i = 1..K+1, so that 0.0 and 1.0 are exact.
    From it every K >= 2 levels in 4 iterations, K = 1 in 2.
    """
    return np.sin(0.5 * np.pi * np.concatenate(([0.0], (np.arange(1.0, K + 2.0) - 0.75) / (K + 0.25))))


def _exchange_grid(K: int) -> np.ndarray:
    # sin(pi / 2) rounds to 1.0, so both endpoints are exact
    return np.sin(0.5 * np.pi * np.linspace(0.0, 1.0, _GRID_PER_REF * (K + 2) + 1))


def remez_exchange(K: int, start=None) -> tuple[BestApproxSolution, int, float]:
    """The best even approximation of degree 2K, its iterations and its largest condition estimate.

    Starts from ``start`` (K + 2 increasing points of [0, 1]), by default
    from ``_closed_form_start(K)``, which derives the committed table.
    """
    grid = _exchange_grid(K)
    vander = _even_cheb_table(grid, K)
    d = _cheb_der_matrix(K)
    derivs = np.stack([d, d @ d])

    ref = _closed_form_start(K) if start is None else np.array(start, dtype=np.float64)
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
            sol = BestApproxSolution(poly, delta, tuple(points.tolist()), tuple(signs.tolist()), last_spread)
            return sol, iteration, max_cond

    raise ConvergenceError(
        f"Remez exchange did not level within {_REMEZ_MAX_ITER} iterations",
        last_spread=last_spread,
    )


_HEADER = '''"""Best even approximations of |x| on [-1, 1], read by ``polyapprox.remez_best_approx``.

SOLUTIONS[K - 1], for K = 1..40, is (delta, spread, cheb, half):

* delta, the best error delta_{2K}, and spread, the exchange's final spread of
  |error| over the alternation points;
* cheb, the K + 1 coefficients of the best polynomial in T_j(2x^2 - 1), j = 0..K;
* half, the K + 2 alternation points 0 = t_0 < ... < t_{K+1} = 1, at which
  |x| - p(x) is (-1)^(j+1) delta.

The Remez exchange in tests/remez.py derives every value from the closed-form
start 0 and cos(pi j / (2K + 1/2)), j = 0..K.  Every literal is a float's
repr, which reads back exactly.

Generated; do not edit.  Rewrite this file with

    PYTHONPATH=src python tests/remez.py

and check it with

    PYTHONPATH=src python -m pytest tests/test_polyapprox.py -k derives
"""
'''


def _literal(values) -> str:
    """A tuple literal of float reprs, continuation lines indented under its first value."""
    body = "\n      ".join(textwrap.wrap(", ".join(map(repr, values)), width=90))
    return f"({body})"


def module_text(solutions) -> str:
    """The text of ``_best_approx.py`` for the solutions for K = 1..40, in order."""
    rows = []
    for K, sol in enumerate(solutions, 1):
        cheb = _literal(sol.poly.cheb_half_coeffs)
        half = _literal(sol.alternation_points[K + 1 :])
        rows.append(f"    # K = {K}\n    ({sol.delta!r}, {sol.spread!r},\n     {cheb},\n     {half}),\n")
    return _HEADER + "\nSOLUTIONS = (\n" + "".join(rows) + ")\n"


if __name__ == "__main__":
    table = Path(__file__).resolve().parents[1] / "src" / "absmean" / "_best_approx.py"
    table.write_text(module_text([remez_exchange(K)[0] for K in range(1, _MAX_REMEZ_K + 1)]))
