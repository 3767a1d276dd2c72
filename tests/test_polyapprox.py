"""Polynomial approximation of |x|: series construction and the exchange solve."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from absmean.errors import ConvergenceError, DomainError
from absmean.polyapprox import (
    BERNSTEIN_CONSTANT,
    EvenPolynomial,
    bernstein_estimate,
    build_G_K,
    remez_best_approx,
    uniform_error,
)
from oracles import chebyshev_even_exact, lp_minimax_delta

# grid comparisons sit exactly at the sup in places; one ulp of slack
ULP = 1.0 + 1e-12


@given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=8),
       st.floats(-1.5, 1.5, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_even_polynomial_is_even_and_matches_horner(coeffs, x):
    poly = EvenPolynomial(tuple(coeffs))
    direct = sum(c * x ** (2 * j) for j, c in enumerate(coeffs))
    assert poly(x) == poly(-x)
    assert math.isclose(poly(x), direct, rel_tol=1e-9, abs_tol=1e-9)


def test_even_polynomial_empty_rejected():
    # construction is permissive; evaluation of an empty polynomial is the error
    empty = EvenPolynomial(())
    with pytest.raises(DomainError):
        empty(0.5)


def test_truncation_value_at_zero_closed_form():
    # G_K(0) = 2 / (pi (2K + 1)) exactly
    for K in (1, 2, 5, 13, 40):
        poly = build_G_K(K)
        assert math.isclose(poly(0.0), 2.0 / (math.pi * (2 * K + 1)), rel_tol=1e-12)


def test_truncation_error_bound_and_coefficients():
    for K in range(1, 41):
        poly = build_G_K(K)
        assert uniform_error(poly) <= 2.0 / (math.pi * (2 * K + 1)) * ULP
        assert max(abs(g) for g in poly.half_coeffs) <= 2.0 ** (3 * K)


def test_truncation_half_coeffs_match_exact_chebyshev_sum():
    # monomial coefficients are sum_j cheb_j T_{2j}, summed exactly from the floats
    for K in range(1, 21):
        poly = build_G_K(K)
        exact = [Fraction(0)] * (K + 1)
        for j, b in enumerate(poly.cheb_half_coeffs):
            for i, t in enumerate(chebyshev_even_exact(j)):
                exact[i] += Fraction(b) * t
        scale = max(abs(g) for g in poly.half_coeffs)
        assert len(poly.half_coeffs) == K + 1
        for g, e in zip(poly.half_coeffs, exact):
            assert abs(float(Fraction(g) - e)) <= 1e-14 * scale, K


@pytest.mark.parametrize("basis", ["best", "chebyshev"])
def test_monomial_coefficients_evaluate_like_the_chebyshev_form(basis):
    # the estimators use the monomial half-coefficients; Horner on them loses
    # about 4^K eps against the Chebyshev evaluation near |x| = 1
    x = np.linspace(-1.0, 1.0, 20001)
    for K in range(1, 11):
        poly = remez_best_approx(K).poly if basis == "best" else build_G_K(K)
        monomial = EvenPolynomial(poly.half_coeffs)
        assert np.max(np.abs(monomial(x) - poly(x))) <= 1e-15 * 4.0 ** K, K


def test_uniform_error_validates_grid():
    with pytest.raises(DomainError):
        uniform_error(build_G_K(1), grid_size=100)


def test_remez_quadratic_closed_form():
    sol = remez_best_approx(1)
    assert abs(sol.delta - 0.125) < 1e-12
    assert np.allclose(sol.poly.half_coeffs, (0.125, 1.0), atol=1e-12)
    assert np.allclose(sorted(sol.alternation_points), [-1.0, -0.5, 0.0, 0.5, 1.0], atol=1e-10)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6])
def test_remez_matches_lp_oracle(K):
    # grid LP gives the minimax error to ~1e-7 from below
    sol = remez_best_approx(K)
    assert abs(sol.delta - lp_minimax_delta(K)) < 1e-5


@pytest.mark.parametrize("K", [1, 2, 5, 10, 20])
def test_equioscillation(K):
    sol = remez_best_approx(K)
    pts = np.asarray(sol.alternation_points)
    assert pts.size == 2 * K + 3
    err = np.abs(pts) - sol.poly(pts)
    assert np.max(np.abs(np.abs(err) - sol.delta)) < 1e-10 * max(sol.delta, 1e-3)
    assert np.array_equal(np.sign(err), np.asarray(sol.alternation_signs, dtype=float))
    order = np.argsort(pts)
    steps = np.diff(np.asarray(sol.alternation_signs)[order])
    assert np.all(np.abs(steps) == 2)   # strict alternation


def test_best_never_worse_than_truncation():
    for K in (1, 2, 5, 10):
        assert uniform_error(remez_best_approx(K).poly) <= uniform_error(build_G_K(K)) * ULP


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_alternation_partition_properties(K):
    sol = remez_best_approx(K)
    assert sorted(sol.a0 + sol.a1) == sorted(sol.alternation_points)
    assert 0.0 in sol.a0          # the origin always sits below the fit
    # endpoint side flips with K: 2K + 3 strictly alternating signs, -1 at 0
    if K % 2 == 0:
        assert 1.0 in sol.a1
    else:
        assert 1.0 in sol.a0
    for x in sol.a0:
        assert abs((abs(x) - sol.poly(x)) + sol.delta) < 1e-10
    for x in sol.a1:
        assert abs((abs(x) - sol.poly(x)) - sol.delta) < 1e-10


def test_error_scaling_toward_reference_constant():
    sols = {K: remez_best_approx(K) for K in (5, 10, 20, 40)}
    deltas = [sols[K].delta for K in (5, 10, 20, 40)]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
    scaled = [2 * K * sols[K].delta for K in (5, 10, 20, 40)]
    assert all(0.25 <= s <= 0.30 for s in scaled)
    gaps = [abs(s - BERNSTEIN_CONSTANT) for s in scaled]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_bernstein_estimate_rows():
    rows = bernstein_estimate([5, 10])
    assert rows[0][0] == 10 and rows[1][0] == 20
    assert math.isclose(rows[0][1], 10 * remez_best_approx(5).delta, rel_tol=1e-12)


def test_k_range_validation():
    with pytest.raises(DomainError):
        remez_best_approx(0)
    with pytest.raises(DomainError):
        remez_best_approx(41)
    with pytest.raises(DomainError):
        build_G_K(0)
    with pytest.raises(DomainError):
        build_G_K(61)
