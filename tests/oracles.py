"""Independent oracles the tests check the package against.

Everything here is deliberately implemented differently from the package:
exact rational arithmetic for Hermite quantities, brute-force linear
programming for minimax fits, closed-form moment sums for estimator risk,
and tensor-grid Gauss-Hermite quadrature for multi-dimensional chi-square
integrals.  Slow and simple on purpose.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog
from scipy.special import roots_hermite

_SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Hermite polynomials, exact

def hermite_exact(k: int, y: Fraction) -> Fraction:
    """H_k(y) by the three-term recurrence in exact rational arithmetic."""
    prev, cur = Fraction(1), y
    if k == 0:
        return prev
    for j in range(1, k):
        prev, cur = cur, y * cur - j * prev
    return cur


def hermite_mean_exact(k: int, mu: Fraction) -> Fraction:
    """E H_k(N(mu,1)) = mu^k."""
    return mu ** k


def hermite_second_moment_exact(k: int, mu: Fraction) -> Fraction:
    """E H_k(N(mu,1))^2 = k! sum_j C(k,j) mu^{2j} / j!."""
    total = Fraction(0)
    for j in range(k + 1):
        total += Fraction(math.comb(k, j)) * mu ** (2 * j) / Fraction(math.factorial(j))
    return Fraction(math.factorial(k)) * total


def hermite_cross_moment_exact(a: int, b: int, mu: Fraction) -> Fraction:
    """E H_a(X) H_b(X) = sum_m C(a,m) C(b,m) m! mu^{a+b-2m} for X ~ N(mu,1)."""
    total = Fraction(0)
    for m in range(min(a, b) + 1):
        total += (
            Fraction(math.comb(a, m))
            * Fraction(math.comb(b, m))
            * Fraction(math.factorial(m))
            * mu ** (a + b - 2 * m)
        )
    return total


# ---------------------------------------------------------------------------
# Chebyshev polynomials, exact

def chebyshev_even_exact(m: int) -> list[int]:
    """Coefficients of x^0, x^2, ..., x^{2m} in T_{2m}(x), as exact integers.

    From the recurrence T_{j+1} = 2x T_j - T_{j-1} on Python-integer
    coefficient lists in x, keeping the even powers of T_{2m}.
    """
    prev, cur = [1], [0, 1]
    if m == 0:
        return prev
    for _ in range(2 * m - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur[::2]


# ---------------------------------------------------------------------------
# exact risk of a series estimator on an atomic coordinate distribution

def exact_series_risk(atoms, weights, scaled_coeffs, n: int):
    """Exact (bias, error_variance, mse) of T_hat = sum_k c_k Bbar_{2k}.

    Coordinates are iid on `atoms` with `weights` (a single atom of weight
    one covers deterministic mean vectors).  `scaled_coeffs[k]` multiplies
    Bbar_{2k}.  Error is measured against T = mean |theta_i|; results are
    exact expectations over both theta and the observation noise, matching
    the engine's population-variance convention (variance = mse - bias^2).
    """
    c = [Fraction(x) for x in np.asarray(scaled_coeffs, dtype=float)]
    K = len(c) - 1
    pts = [Fraction(t) for t in atoms]
    wts = [Fraction(w) for w in weights]
    # solver-produced weights are floats; renormalize away the ~1e-16 slack
    total_w = sum(wts)
    assert abs(total_w - 1) < Fraction(1, 10**9)
    wts = [w / total_w for w in wts]

    def series_mean(t: Fraction) -> Fraction:
        return sum(ck * t ** (2 * k) for k, ck in enumerate(c))

    def series_var(t: Fraction) -> Fraction:
        total = Fraction(0)
        for a in range(K + 1):
            for b in range(K + 1):
                cov = hermite_cross_moment_exact(2 * a, 2 * b, t) - t ** (2 * a) * t ** (2 * b)
                total += c[a] * c[b] * cov
        return total

    e_vals = [series_mean(t) - abs(t) for t in pts]
    e_mean = sum(w * e for w, e in zip(wts, e_vals))
    e_var = sum(w * e * e for w, e in zip(wts, e_vals)) - e_mean * e_mean
    noise_var = sum(w * series_var(t) for w, t in zip(wts, pts))

    bias = e_mean
    err_variance = (e_var + noise_var) / n
    mse = bias * bias + err_variance
    return float(bias), float(err_variance), float(mse)


# ---------------------------------------------------------------------------
# minimax fit by linear programming (independent of the exchange algorithm)

def lp_minimax_delta(K: int, grid_size: int = 4001) -> float:
    """Best sup-norm error of even degree-2K fits to |x|, by LP on a grid.

    Grid discretization biases delta low by O(grid spacing squared); with
    4001 points on [0, 1] the bias is far below 1e-5 for K <= 6.
    """
    x = np.linspace(0.0, 1.0, grid_size)
    V = np.vander(x * x, N=K + 1, increasing=True)   # columns x^{2j}
    # variables: coeffs (free) and t >= 0; minimize t with |V c - x| <= t
    A_ub = np.block([[V, -np.ones((grid_size, 1))], [-V, -np.ones((grid_size, 1))]])
    b_ub = np.concatenate([x, -x])
    cost = np.zeros(K + 2)
    cost[-1] = 1.0
    res = linprog(
        cost, A_ub=A_ub, b_ub=b_ub,
        bounds=[(None, None)] * (K + 1) + [(0, None)], method="highs",
    )
    assert res.success, res.message
    return float(res.fun)


# ---------------------------------------------------------------------------
# direct n-dimensional chi-square integrals by tensor Gauss-Hermite

def chi2_direct_nd(positions0, weights0, positions1, weights1, n: int, quad_points: int = 40) -> float:
    """Integral of (f1 - f0)^2 / f0 over R^n for n-fold product mixtures.

    No use of the one-dimensional factorization: the n-dimensional integral
    is evaluated on a tensor Gauss-Hermite grid (y = sqrt(2) x per axis).
    Memory grows like quad_points^n; keep n small.
    """
    x, w = roots_hermite(quad_points)
    y = math.sqrt(2.0) * x
    u = w * np.exp(x * x)   # weight with the Gaussian kernel divided back out

    def mixture(y_vals, pos, wts):
        out = np.zeros_like(y_vals)
        for t, wt in zip(pos, wts):
            out += wt * np.exp(-0.5 * (y_vals - t) ** 2)
        return out / _SQRT_2PI

    a = mixture(y, positions1, weights1)
    b = mixture(y, positions0, weights0)

    F1 = np.ones(1)
    F0 = np.ones(1)
    U = np.ones(1)
    for _ in range(n):
        F1 = np.multiply.outer(F1, a).ravel()
        F0 = np.multiply.outer(F0, b).ravel()
        U = np.multiply.outer(U, u).ravel()
    diff = F1 - F0
    return float(2.0 ** (n / 2.0) * np.sum(U * diff * diff / F0))
