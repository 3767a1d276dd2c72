"""Polynomial approximation of |x|: series construction and the exchange solve."""

import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.chebyshev import cheb2poly, chebder, chebvander

from absmean.errors import ConvergenceError, DomainError
from absmean.polyapprox import (
    _COND_LIMIT,
    _MAX_GK,
    _MAX_REMEZ_K,
    _REMEZ_MAX_ITER,
    _cheb_der,
    _cheb_to_monomial,
    _even_cheb_table,
    _pick_candidates,
    BERNSTEIN_CONSTANT,
    EvenPolynomial,
    bernstein_estimate,
    build_G_K,
    coefficient_error,
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


def _exact_half_coeffs(poly):
    """Monomial coefficients sum_j cheb_j T_{2j}, summed exactly from the floats."""
    exact = [Fraction(0)] * len(poly.cheb_half_coeffs)
    for j, b in enumerate(poly.cheb_half_coeffs):
        for i, t in enumerate(chebyshev_even_exact(j)):
            exact[i] += Fraction(b) * t
    return exact


def test_truncation_half_coeffs_match_exact_chebyshev_sum():
    for K in range(1, 21):
        poly = build_G_K(K)
        exact = _exact_half_coeffs(poly)
        scale = max(abs(g) for g in poly.half_coeffs)
        assert len(poly.half_coeffs) == K + 1
        for g, e in zip(poly.half_coeffs, exact):
            assert abs(float(Fraction(g) - e)) <= 1e-14 * scale, K


@pytest.mark.parametrize("K", [1, 3, 10, 25, 40])
def test_coefficient_error_is_the_exact_rounding_of_the_monomial_form(K):
    for poly in (build_G_K(K), remez_best_approx(K).poly):
        exact = _exact_half_coeffs(poly)
        rounding = sum(abs(Fraction(g) - e) for g, e in zip(poly.half_coeffs, exact))
        assert coefficient_error(poly) == float(rounding)
    assert coefficient_error(build_G_K(1)) == 0.0
    with pytest.raises(DomainError):
        coefficient_error(EvenPolynomial((0.5, 1.0)))


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


@pytest.mark.parametrize("K", range(1, 41))
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


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 30, 35, 40])
def test_de_la_vallee_poussin_bracket_on_a_dense_grid(K):
    # |e| reaches delta at the alternation points and nowhere exceeds it,
    # checked on 2e6 + 1 points of [0, 1] (the error is even)
    x = np.linspace(0.0, 1.0, 2_000_001)
    sol = remez_best_approx(K)
    pts = np.asarray(sol.alternation_points)
    assert np.max(np.abs(x - sol.poly(x))) <= sol.delta * (1.0 + 1e-10)
    assert np.min(np.abs(np.abs(pts) - sol.poly(pts))) >= sol.delta * (1.0 - 1e-10)


@pytest.mark.parametrize("K", [1, 2, 10, 40])
def test_exchange_diagnostics_are_filled(K):
    tol = 1e-12
    sol = remez_best_approx(K, tol=tol)
    assert 1 <= sol.iterations <= _REMEZ_MAX_ITER
    assert 0.0 <= sol.spread <= tol * sol.delta
    assert 1.0 <= sol.max_condition <= _COND_LIMIT
    # diagnostics take no part in equality
    assert sol == dataclasses.replace(sol, iterations=0, spread=1.0, max_condition=0.0)


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


# ---------------------------------------------------------------------------
# the package's Chebyshev helpers against numpy.polynomial.chebyshev, bit for bit

def _hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def _numpy_half_monomial(half):
    even = np.zeros(2 * len(half) - 1)
    even[::2] = half
    return cheb2poly(even)[::2]


def _exchange_series():
    """Every Chebyshev series the estimators and the lower bound use."""
    for K in range(1, _MAX_REMEZ_K + 1):
        yield "best", K, np.asarray(remez_best_approx(K).poly.cheb_half_coeffs)
    for K in range(1, _MAX_GK + 1):
        yield "chebyshev", K, np.asarray(build_G_K(K).cheb_half_coeffs)


_COEFF = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 1.0, -1.0]))


@given(st.lists(_COEFF, min_size=1, max_size=24))
@settings(max_examples=300, deadline=None)
def test_cheb_to_monomial_matches_cheb2poly_bits(half):
    # zeros of either sign, inside or trailing (cheb2poly trims those), included
    got = _cheb_to_monomial(np.asarray(half, dtype=np.float64))
    assert _hexes(got) == _hexes(_numpy_half_monomial(half))


@given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=40), st.integers(1, 60))
@settings(max_examples=200, deadline=None)
def test_even_cheb_table_matches_chebvander_bits_and_layout(x, K):
    x = np.asarray(x)
    got, want = _even_cheb_table(x, K), chebvander(2.0 * x * x - 1.0, K)
    assert got.shape == want.shape and got.strides == want.strides
    assert _hexes(got) == _hexes(want)
    b = np.linspace(-1.0, 1.0, K + 1)
    assert _hexes(got @ b) == _hexes(want @ b)


@given(st.lists(_COEFF, min_size=1, max_size=24), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_cheb_der_matches_chebder_bits(c, m):
    assert _hexes(_cheb_der(c, m)) == _hexes(chebder(np.asarray(c), m))


def test_helpers_match_numpy_on_every_series_the_package_uses():
    for basis, K, b in _exchange_series():
        assert _hexes(_cheb_to_monomial(b)) == _hexes(_numpy_half_monomial(b)), (basis, K)
        for m in (1, 2):
            assert _hexes(_cheb_der(b, m)) == _hexes(chebder(b, m)), (basis, K, m)
        # the exchange grid and, for the best series, its alternation points
        grid = np.sin(0.5 * np.pi * np.linspace(0.0, 1.0, 16 * (K + 2) + 1))
        points = [grid]
        if basis == "best":
            points.append(np.abs(remez_best_approx(K).alternation_points))
        for x in points:
            got, want = _even_cheb_table(x, K), chebvander(2.0 * x * x - 1.0, K)
            assert got.strides == want.strides
            assert _hexes(got @ b) == _hexes(want @ b), (basis, K)
            assert _hexes(got) == _hexes(want), (basis, K)


def test_fraction_conversion_matches_the_exact_oracle():
    for basis, K, b in _exchange_series():
        got = _cheb_to_monomial(np.array([Fraction(v) for v in b], dtype=object))
        assert list(got) == _exact_half_coeffs(EvenPolynomial((), tuple(b))), (basis, K)


# SHA-256 over the float.hex of every remez_best_approx(K) output, K = 1..40,
# taken before the exchange moved off numpy.polynomial.chebyshev
_REMEZ_DIGEST = "f54c9e9f7d3ad19d701fdf14481055ca70b180cfcb1203db54626e2c438e7ea3"


def test_remez_outputs_are_pinned_bit_for_bit():
    h = hashlib.sha256()
    for K in range(1, 41):
        sol = remez_best_approx(K)
        floats = (sol.delta, *sol.alternation_points, *sol.poly.half_coeffs,
                  *sol.poly.cheb_half_coeffs, sol.spread, sol.max_condition)
        ints = (K, sol.iterations, *sol.alternation_signs)
        h.update((" ".join(map(float.hex, floats)) + "|" + " ".join(map(str, ints)) + "\n").encode())
    assert h.hexdigest() == _REMEZ_DIGEST


def _pick_by_argmax(e, K):
    """_pick_candidates with one argmax per sign segment (the reference rule)."""
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


# few distinct values force ties (the first index wins) and exact zeros (e >= 0 is +)
_ERR = st.one_of(st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, math.nan]),
                 st.floats(-3.0, 3.0))


@given(st.lists(_ERR, min_size=1, max_size=80), st.integers(1, 12))
@settings(max_examples=500, deadline=None)
def test_pick_candidates_matches_the_argmax_rule(e, K):
    e = np.asarray(e)
    assert np.array_equal(_pick_candidates(e, K), _pick_by_argmax(e, K))


def test_pick_candidates_on_error_curves():
    rng = np.random.default_rng(5)
    for K in range(1, 41):
        # a noisy alternating curve with more sign segments than K + 2, so the trim runs
        x = np.linspace(0.0, 1.0, 16 * (K + 2) + 1)
        e = np.cos((K + 6) * np.pi * x) * (1.0 + 0.1 * rng.standard_normal(x.size))
        e[rng.integers(0, x.size, 5)] = 0.0
        got = _pick_candidates(e, K)
        assert len(got) == K + 2
        assert np.array_equal(got, _pick_by_argmax(e, K))
    e = np.array([1.0, 3.0, 3.0, -3.0, -3.0, 0.0, 2.0, 2.0])
    assert _pick_candidates(e, 1).tolist() == [1, 3, 6]
