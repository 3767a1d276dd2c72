"""Polynomial approximation of |x|: series construction and the exchange solve."""

import functools
import hashlib
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.chebyshev import chebder, chebvander
from numpy.polynomial.polynomial import polyval

import remez
from absmean import _best_approx, lowerbound, polyapprox
from absmean.errors import DomainError, RangeError
from absmean.estimators import approx_coefficients
from absmean.polyapprox import (
    _MAX_GK,
    _MAX_REMEZ_K,
    _cheb_to_monomial,
    BERNSTEIN_CONSTANT,
    EvenPolynomial,
    build_G_K,
    coefficient_error,
    remez_best_approx,
    uniform_error,
)
from oracles import chebyshev_even_exact, lp_minimax_delta
from remez import (
    _COND_LIMIT,
    _REMEZ_MAX_ITER,
    _REMEZ_TOL,
    _cheb_der_matrix,
    _closed_form_start,
    _even_cheb_table,
    _exchange_grid,
    _pick_candidates,
    _solve_levelled,
    ConditioningError,
    ConvergenceError,
    remez_exchange,
)

# grid comparisons sit exactly at the sup in places; one ulp of slack
ULP = 1.0 + 1e-12


@given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=8),
       st.floats(-1.0, 1.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_even_polynomial_is_even_and_matches_horner(coeffs, x):
    # built from Chebyshev coefficients; Horner on the derived monomial form
    # agrees to a few eps of its coefficients' size on [-1, 1]
    poly = EvenPolynomial(tuple(coeffs))
    direct = sum(c * x ** (2 * j) for j, c in enumerate(poly.half_coeffs))
    assert poly(x) == poly(-x)
    assert math.isclose(poly(x), direct, rel_tol=0.0, abs_tol=1e-12 * (1.0 + sum(map(abs, poly.half_coeffs))))


def test_even_polynomial_empty_rejected():
    with pytest.raises(DomainError):
        EvenPolynomial(())


def test_even_polynomial_call_refuses_non_finite_x_and_overflow():
    # text, bools and the rest of the argument policy: tests/test_errors.py
    poly = build_G_K(3)
    for bad in (math.inf, -math.inf, math.nan, [0.5, math.inf]):
        with pytest.raises(DomainError, match="x must be finite"):
            poly(bad)
    # finite x past sqrt of the double range: 2x^2 - 1 overflows, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for big in (1e300, -1e200, [0.5, 1e300]):
            with pytest.raises(RangeError, match="overflows the double range"):
                poly(big)
    assert poly(np.int64(0)) == poly(0.0) == poly(np.float32(0.0))
    assert poly([0.0, 0.5]).tolist() == [poly(0.0), poly(0.5)]


def test_lower_bound_path_never_converts_to_monomials(monkeypatch):
    calls = []
    convert = polyapprox._cheb_to_monomial

    def recording(half):
        calls.append(len(half))
        return convert(half)

    monkeypatch.setattr(polyapprox, "_cheb_to_monomial", recording)
    lowerbound._prior_pair_data.cache_clear()
    lowerbound._pair_terms.cache_clear()
    for k in (2, 40, 80):
        lowerbound.lower_bound_pipeline(10**4, 1.0, k_n=k)
    assert calls == []
    approx_coefficients.cache_clear()
    approx_coefficients(3, "best")
    assert calls == [4]


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


@pytest.mark.parametrize("basis", ["best", "chebyshev"])
def test_monomial_coefficients_evaluate_like_the_chebyshev_form(basis):
    # the estimators use the monomial half-coefficients; Horner on them loses
    # about 4^K eps against the Chebyshev evaluation near |x| = 1
    x = np.linspace(-1.0, 1.0, 20001)
    for K in range(1, 11):
        poly = remez_best_approx(K).poly if basis == "best" else build_G_K(K)
        monomial = polyval(x * x, poly.half_coeffs)
        assert np.max(np.abs(monomial - poly(x))) <= 1e-15 * 4.0 ** K, K


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


@functools.cache
def _derived():
    """remez_exchange(K) from the closed form, K = 1..40: (solution, iterations, max condition)."""
    return tuple(remez_exchange(K) for K in range(1, _MAX_REMEZ_K + 1))


@pytest.mark.parametrize("K", [1, 2, 10, 40])
def test_exchange_diagnostics_are_filled(K):
    # the exchange that derives the table reports its run; the table keeps its spread
    sol, iterations, max_condition = _derived()[K - 1]
    assert 1 <= iterations <= _REMEZ_MAX_ITER
    assert 0.0 <= sol.spread <= _REMEZ_TOL * sol.delta
    assert 1.0 <= max_condition <= _COND_LIMIT
    assert sol == remez_best_approx(K)


def test_the_guard_bounds_the_svd_condition_within_k_plus_2():
    # ||Phi||_F ||Phi^-1||_F lies between the 2-norm condition and K + 2 times it
    for K in range(1, _MAX_REMEZ_K + 1):
        ref = _closed_form_start(K)
        phi = np.column_stack([_even_cheb_table(ref, K), (-1.0) ** np.arange(K + 2)])
        cond, svd = _solve_levelled(ref, K)[2], np.linalg.cond(phi)
        assert svd <= cond <= (K + 2) * svd, K


@pytest.mark.parametrize("ref", [[0.5, 0.7, 0.5, 1.0], [0.0, 0.5, math.nan, 1.0]])
def test_singular_or_non_finite_exchange_system_raises_conditioning_error(ref):
    # rows 0 and 2 of the first system are equal; a NaN poisons the second
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConditioningError, match="exchange system"):
            _solve_levelled(np.array(ref), 2)


def test_exchange_past_the_condition_limit_raises(monkeypatch):
    monkeypatch.setattr(remez, "_COND_LIMIT", 1.0)
    with pytest.raises(ConditioningError) as info:
        remez_exchange(3)
    assert info.value.condition_estimate > 1.0


def test_best_never_worse_than_truncation():
    for K in (1, 2, 5, 10):
        assert uniform_error(remez_best_approx(K).poly) <= uniform_error(build_G_K(K)) * ULP


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_alternation_partition_properties(K):
    sol = remez_best_approx(K)
    sign = dict(zip(sol.alternation_points, sol.alternation_signs))
    assert len(sign) == len(sol.alternation_points) == 2 * K + 3
    assert set(sign.values()) == {-1, 1}
    assert sign[0.0] == -1        # the origin always sits below the fit
    # endpoint side flips with K: 2K + 3 strictly alternating signs, -1 at 0
    assert sign[1.0] == (1 if K % 2 == 0 else -1)
    for x, s in sign.items():
        assert abs((abs(x) - sol.poly(x)) - s * sol.delta) < 1e-10


def test_error_scaling_toward_reference_constant():
    sols = {K: remez_best_approx(K) for K in (5, 10, 20, 40)}
    deltas = [sols[K].delta for K in (5, 10, 20, 40)]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
    scaled = [2 * K * sols[K].delta for K in (5, 10, 20, 40)]
    assert all(0.25 <= s <= 0.30 for s in scaled)
    gaps = [abs(s - BERNSTEIN_CONSTANT) for s in scaled]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


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
# the package's Chebyshev helpers against numpy.polynomial.chebyshev: the
# derivative matrix to a few eps, the table to 1e-13

def _hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def _exchange_series():
    """Every Chebyshev series the estimators and the lower bound use."""
    for K in range(1, _MAX_REMEZ_K + 1):
        yield "best", K, np.asarray(remez_best_approx(K).poly.cheb_half_coeffs)
    for K in range(1, _MAX_GK + 1):
        yield "chebyshev", K, np.asarray(build_G_K(K).cheb_half_coeffs)


_COEFF = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 1.0, -1.0]))


def _assert_table_close(x, K):
    """Columns 0-1 as chebvander's bits, every column within 1e-13 of it."""
    x = np.asarray(x, dtype=np.float64)
    got, want = _even_cheb_table(x, K), chebvander(2.0 * x * x - 1.0, K)
    assert got.shape == want.shape
    assert _hexes(got[:, :2]) == _hexes(want[:, :2])
    assert np.max(np.abs(got - want)) <= 1e-13, K


@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40), st.integers(1, _MAX_GK))
@settings(max_examples=200, deadline=None)
def test_even_cheb_table_is_close_to_chebvander(x, K):
    _assert_table_close(x, K)


def test_even_cheb_table_is_close_on_the_exchange_grids_and_alternation_points():
    for K in range(1, _MAX_GK + 1):
        _assert_table_close(_exchange_grid(K), K)
        if K <= _MAX_REMEZ_K:
            _assert_table_close(np.abs(remez_best_approx(K).alternation_points), K)


def _assert_der_close(b):
    """D b and D^2 b against chebder(b, m), within 8(K+1) eps (|D^m| |b|) entrywise.

    D is nonnegative, so |D|^2 = |D^2| bounds chebder's twice-applied
    recurrence too; underflow adds at most tiny per operation.
    """
    b = np.asarray(b, dtype=np.float64)
    d = _cheb_der_matrix(len(b) - 1)
    for m, dm in ((1, d), (2, d @ d)):
        want = chebder(b, m)
        got = dm @ b
        bound = 8 * len(b) * (np.finfo(float).eps * (dm @ np.abs(b)) + np.finfo(float).tiny)
        assert np.all(got[want.size :] == 0.0), m
        assert np.all(np.abs(got[: want.size] - want) <= bound[: want.size]), m


@given(st.lists(_COEFF, min_size=1, max_size=24))
@settings(max_examples=300, deadline=None)
def test_cheb_der_matrix_matches_chebder(c):
    _assert_der_close(c)


def test_helpers_match_numpy_on_every_series_the_package_uses():
    for basis, K, b in _exchange_series():
        _assert_der_close(b)


def test_fraction_conversion_matches_the_exact_oracle():
    for basis, K, b in _exchange_series():
        got = _cheb_to_monomial(np.array([Fraction(v) for v in b], dtype=object))
        assert list(got) == _exact_half_coeffs(EvenPolynomial(tuple(b))), (basis, K)


# SHA-256 over the float.hex of every remez_best_approx(K) output, K = 1..40,
# taken while the library still ran the exchange from the closed form
_REMEZ_SOLUTION_DIGEST = "82f4dba6bda3343d0eee5aef6f39d4e5f385a79a5343b373290843326faecfe8"


def _remez_digest(solutions):
    h = hashlib.sha256()
    for K, sol in enumerate(solutions, 1):
        floats = (sol.delta, *sol.alternation_points, *sol.poly.half_coeffs,
                  *sol.poly.cheb_half_coeffs, sol.spread)
        ints = (K, *sol.alternation_signs)
        h.update((" ".join(map(float.hex, floats)) + "|" + " ".join(map(str, ints)) + "\n").encode())
    return h.hexdigest()


def test_remez_outputs_are_pinned_bit_for_bit():
    # the table read
    assert _remez_digest(remez_best_approx(K) for K in range(1, _MAX_REMEZ_K + 1)) == _REMEZ_SOLUTION_DIGEST


def test_remez_solutions_are_bit_identical_to_the_closed_form_start():
    # the exchange that derives the table
    assert _remez_digest(sol for sol, _, _ in _derived()) == _REMEZ_SOLUTION_DIGEST


# the exchange as it ran before it started from the truncation error and
# tabulated T_j(2x^2 - 1) as cosines: its outputs for K = 1..40
_ANCHOR = json.loads((Path(__file__).parent / "remez_anchor.json").read_text())["K"]


def test_remez_agrees_with_the_anchor_in_fewer_iterations():
    total = 0
    for K in range(1, 41):
        sol, want = remez_best_approx(K), _ANCHOR[str(K)]
        assert math.isclose(sol.delta, float.fromhex(want["delta"]), rel_tol=1e-11, abs_tol=0.0), K
        half = [(x, s) for x, s in zip(sol.alternation_points, sol.alternation_signs) if x >= 0.0]
        points = np.array([float.fromhex(h) for h in want["points"]])
        assert len(half) == len(points), K
        assert np.max(np.abs(np.array([x for x, _ in half]) - points)) <= 1e-12, K
        assert "".join("+" if s > 0 else "-" for _, s in half) == want["signs"], K
        # the exchange that derives the table, from the closed-form start
        iterations = _derived()[K - 1][1]
        assert iterations <= want["iterations"], K
        total += iterations
    # 158 from the closed-form start, 193 from the truncation error, 228 from the extrema of T_{2K+2}
    assert total == 158
    # K = 1 keeps every bit
    sol = remez_best_approx(1)
    assert sol.delta.hex() == _ANCHOR["1"]["delta"]
    assert sol.alternation_points == (-1.0, -0.5, 0.0, 0.5, 1.0)
    assert sol.poly.half_coeffs == (0.125, 1.0)


@pytest.mark.parametrize("K", range(1, 41))
def test_truncation_error_starts_the_exchange_with_k_plus_2_segments(K):
    # the truncation error |x| - G_K, an earlier start, has K + 2 sign segments
    # on the exchange grid; so has the error levelled on the closed-form start
    # that derives the table, which starts within 0.3 delta of level
    grid = _exchange_grid(K)
    vander = _even_cheb_table(grid, K)
    truncation = grid - vander @ np.asarray(build_G_K(K).cheb_half_coeffs)
    first = grid - vander @ _solve_levelled(_closed_form_start(K), K)[0]
    for e in (truncation, first):
        assert 1 + np.count_nonzero(np.diff(np.where(e >= 0.0, 1, -1))) == K + 2
        assert len(_pick_candidates(e, K)) == K + 2
    assert np.ptp(np.abs(first[_pick_candidates(first, K)])) <= 0.3 * remez_best_approx(K).delta


def test_the_start_is_k_plus_2_increasing_points_with_exact_ends():
    assert len(_best_approx.SOLUTIONS) == _MAX_REMEZ_K
    for K in range(1, _MAX_REMEZ_K + 1):
        # the closed form that derives the table, and the table's half alternation set
        for ref in (_closed_form_start(K), np.asarray(_best_approx.SOLUTIONS[K - 1][3])):
            assert ref.shape == (K + 2,), K
            assert np.all(np.diff(ref) > 0.0), K
            assert ref[0] == 0.0 and ref[-1] == 1.0, K
        # the closed form: x_j = cos(pi j / (2K + 1/2)) for j = K..0
        ref = _closed_form_start(K)
        assert np.max(np.abs(ref[1:] - np.cos(np.pi * np.arange(K, -1, -1) / (2 * K + 0.5)))) <= 1e-15, K


def _record(sol):
    """Every stored value of a solution, floats as float.hex, and its signs."""
    floats = (sol.delta, sol.spread, *sol.poly.cheb_half_coeffs, *sol.alternation_points)
    return [float(v).hex() for v in floats], list(sol.alternation_signs)


def test_the_table_is_what_the_exchange_derives_from_the_closed_form():
    derived = [sol for sol, _, _ in _derived()]
    stale = [K for K, sol in enumerate(derived, 1) if _record(sol) != _record(remez_best_approx(K))]
    assert not stale, f"the best-approximation table is stale at K = {stale[0]} (first of {len(stale)} stale K)"
    assert Path(_best_approx.__file__).read_text() == remez.module_text(derived)


def test_every_stored_delta_is_certified_within_0_7_percent():
    # Below, de la Vallee Poussin: the error alternates in sign at the K + 2 half
    # points, so the best error E_K is at least min |e(t_j)|.  Above, Bernstein:
    # with t = (1 + cos phi) / 2 the error is a trigonometric polynomial of degree
    # 2K in phi, so on angles h apart E_K <= max |e| <= grid max / (1 - K h).
    phi = np.linspace(0.0, np.pi, 20001)
    h = np.pi / 20000
    t = 0.5 * (1.0 + np.cos(phi))
    for K in range(1, _MAX_REMEZ_K + 1):
        sol = remez_best_approx(K)
        half = np.asarray(sol.alternation_points[K + 1 :])
        e = half - sol.poly(half)
        assert np.array_equal(np.sign(e), (-1.0) ** np.arange(1, K + 3)), K
        lower = float(np.min(np.abs(e)))
        upper = float(np.max(np.abs(t - sol.poly(t)))) / (1.0 - K * h)
        assert lower <= sol.delta * (1.0 + 1e-12), K
        assert sol.delta <= upper, K
        assert upper - lower <= 0.007 * sol.delta, K


@pytest.mark.parametrize("K", [1, 2, 9, 40])
@pytest.mark.parametrize("start", ["closed form", "perturbed"])
def test_the_loop_certifies_a_stale_start(start, K):
    # from the closed form, or from the table's half points with each inner point
    # moved 1e-3 of the way to the next, the exchange levels again on the full
    # grid, to the stored delta
    want = remez_best_approx(K)
    if start == "closed form":
        ref = _closed_form_start(K)
    else:
        ref = np.array(want.alternation_points[K + 1 :])
        ref[1:-1] += 1e-3 * np.diff(ref)[1:]
    sol, iterations, _ = remez_exchange(K, ref)
    assert iterations > 1
    assert math.isclose(sol.delta, want.delta, rel_tol=1e-12, abs_tol=0.0)


def test_too_few_sign_segments_in_the_exchange_raise(monkeypatch):
    # the loop refuses an error curve with fewer than K + 2 sign segments
    monkeypatch.setattr(remez, "_pick_candidates", lambda e, K: np.arange(K + 1))
    with pytest.raises(ConvergenceError, match="only 4 sign segments, need 5") as info:
        remez_exchange(3)
    assert info.value.last_spread == math.inf


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

