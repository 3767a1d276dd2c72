"""Polynomial approximation of |x|: series construction and the exchange solve."""

import dataclasses
import hashlib
import json
import math
import textwrap
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.chebyshev import chebder, chebvander
from numpy.polynomial.polynomial import polyval

from absmean import _exchange_start, lowerbound, polyapprox
from absmean.errors import ConditioningError, ConvergenceError, DomainError, RangeError
from absmean.estimators import approx_coefficients
from absmean.polyapprox import (
    _COND_LIMIT,
    _GRID_PER_REF,
    _MAX_GK,
    _MAX_REMEZ_K,
    _REMEZ_MAX_ITER,
    _REMEZ_TOL,
    _cheb_der_matrix,
    _cheb_to_monomial,
    _even_cheb_table,
    _pick_candidates,
    _solve_levelled,
    _start_reference,
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


@pytest.mark.parametrize("K", [1, 2, 10, 40])
def test_exchange_diagnostics_are_filled(K):
    sol = remez_best_approx(K)
    assert 1 <= sol.iterations <= _REMEZ_MAX_ITER
    assert 0.0 <= sol.spread <= _REMEZ_TOL * sol.delta
    assert 1.0 <= sol.max_condition <= _COND_LIMIT
    # diagnostics take no part in equality
    assert sol == dataclasses.replace(sol, iterations=0, spread=1.0, max_condition=0.0)


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
    monkeypatch.setattr(polyapprox, "_COND_LIMIT", 1.0)
    with pytest.raises(ConditioningError) as info:
        remez_best_approx(3)
    assert info.value.condition_estimate > 1.0


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


def _exchange_grid(K):
    return np.sin(0.5 * np.pi * np.linspace(0.0, 1.0, _GRID_PER_REF * (K + 2) + 1))


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
# retaken once the exchange started from the committed table: one iteration
# each, and max_condition is the final system's estimate
_REMEZ_DIGEST = "7e90a62017e2d9b5da7c5c641364b12652648c96e48658c3dcfa6f587a2a5b8f"
# the same without iterations and max_condition, taken while the exchange
# still started from the closed form; the table start keeps it
_REMEZ_SOLUTION_DIGEST = "82f4dba6bda3343d0eee5aef6f39d4e5f385a79a5343b373290843326faecfe8"


def _remez_digest(diagnostics):
    h = hashlib.sha256()
    for K in range(1, 41):
        sol = remez_best_approx(K)
        floats = (sol.delta, *sol.alternation_points, *sol.poly.half_coeffs,
                  *sol.poly.cheb_half_coeffs, sol.spread)
        ints = (K, *sol.alternation_signs)
        if diagnostics:
            floats, ints = (*floats, sol.max_condition), (K, sol.iterations, *sol.alternation_signs)
        h.update((" ".join(map(float.hex, floats)) + "|" + " ".join(map(str, ints)) + "\n").encode())
    return h.hexdigest()


def test_remez_outputs_are_pinned_bit_for_bit():
    assert _remez_digest(diagnostics=True) == _REMEZ_DIGEST


def test_remez_solutions_are_bit_identical_to_the_closed_form_start():
    assert _remez_digest(diagnostics=False) == _REMEZ_SOLUTION_DIGEST


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
        assert sol.iterations <= want["iterations"], K
        total += sol.iterations
        assert sol.iterations == 1, K
    # 158 from the closed-form start, 193 from the truncation error, 228 from the extrema of T_{2K+2}
    assert total == 40
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
    assert len(_exchange_start.REFERENCES) == _MAX_REMEZ_K
    for K in range(1, _MAX_REMEZ_K + 1):
        for ref in (_start_reference(K), _closed_form_start(K)):
            assert ref.shape == (K + 2,), K
            assert np.all(np.diff(ref) > 0.0), K
            assert ref[0] == 0.0 and ref[-1] == 1.0, K
        # the closed form: x_j = cos(pi j / (2K + 1/2)) for j = K..0
        ref = _closed_form_start(K)
        assert np.max(np.abs(ref[1:] - np.cos(np.pi * np.arange(K, -1, -1) / (2 * K + 0.5)))) <= 1e-15, K
    # each call hands out a fresh array
    _start_reference(3)[1] = 0.25
    assert _start_reference(3)[1] == _exchange_start.REFERENCES[2][1] != 0.25


def _closed_form_start(K):
    """The reference that derives the table: 0 and x_j = cos(pi j / (2K + 1/2)), j = 0..K.

    Written as sin(pi s / 2), like the grid, with s = 0 and
    s_i = (i - 3/4) / (K + 1/4) for i = 1..K+1, so that 0.0 and 1.0 are exact.
    From it every K >= 2 levels in 4 iterations, K = 1 in 2.
    """
    return np.sin(0.5 * np.pi * np.concatenate(([0.0], (np.arange(1.0, K + 2.0) - 0.75) / (K + 0.25))))


def _last_levelled_references(mp):
    """For K = 1..40, the reference of the last levelling solve of the exchange
    run from the closed-form start (patched in through ``mp``, a MonkeyPatch)."""
    seen = {}
    solve = polyapprox._solve_levelled

    def spy(ref, K):
        seen[K] = ref.copy()
        return solve(ref, K)

    mp.setattr(polyapprox, "_start_reference", _closed_form_start)
    mp.setattr(polyapprox, "_solve_levelled", spy)
    for K in range(1, _MAX_REMEZ_K + 1):
        remez_best_approx(K)
    return [seen[K] for K in range(1, _MAX_REMEZ_K + 1)]


_START_HEADER = '''"""Starting references of the Remez exchange in ``polyapprox.remez_best_approx``.

REFERENCES[K - 1], for K = 1..40, holds the K + 2 increasing points of [0, 1]
on which the exchange run from the closed-form start 0 and
cos(pi j / (2K + 1/2)), j = 0..K, does its last levelling solve.  Started
there, the exchange levels in one iteration, with the same outputs bit for
bit.  Every literal is a float's repr, which reads back exactly.

Generated; do not edit.  After a change to the exchange, rewrite this file with

    PYTHONPATH=src python tests/test_polyapprox.py

and check it with

    PYTHONPATH=src python -m pytest tests/test_polyapprox.py -k start_table
"""
'''


def _start_module_text(table):
    """The text of ``_exchange_start.py`` for the references ``table``, K = 1..40."""
    rows = []
    for K, ref in enumerate(table, 1):
        body = "\n     ".join(textwrap.wrap(", ".join(map(repr, ref.tolist())), width=91))
        rows.append(f"    # K = {K}\n    ({body}),\n")
    return _START_HEADER + "\nREFERENCES = (\n" + "".join(rows) + ")\n"


def test_the_start_table_is_the_last_levelled_reference_from_the_closed_form(monkeypatch):
    table = _last_levelled_references(monkeypatch)
    stale = [K for K, ref in enumerate(table, 1) if _hexes(ref) != _hexes(_exchange_start.REFERENCES[K - 1])]
    assert not stale, f"the start table is stale at K = {stale[0]} (first of {len(stale)} stale K)"
    assert Path(_exchange_start.__file__).read_text() == _start_module_text(table)


@pytest.mark.parametrize("K", [1, 2, 9, 40])
@pytest.mark.parametrize("start", ["closed form", "perturbed"])
def test_the_loop_certifies_a_stale_start(monkeypatch, start, K):
    # the table only saves iterations: from a stale entry the exchange levels
    # again on the full grid, to the same delta
    want = remez_best_approx(K)
    assert want.iterations == 1
    ref = np.array(_exchange_start.REFERENCES[K - 1])
    if start == "closed form":
        ref = _closed_form_start(K)
    else:
        ref[1:-1] += 1e-3 * np.diff(ref)[1:]   # each inner point a little toward the next
    table = list(_exchange_start.REFERENCES)
    table[K - 1] = tuple(ref.tolist())
    monkeypatch.setattr(_exchange_start, "REFERENCES", tuple(table))
    sol = remez_best_approx(K)
    assert sol.iterations > 1
    assert math.isclose(sol.delta, want.delta, rel_tol=1e-12, abs_tol=0.0)


def test_too_few_sign_segments_in_the_exchange_raise(monkeypatch):
    # the loop refuses an error curve with fewer than K + 2 sign segments
    monkeypatch.setattr(polyapprox, "_pick_candidates", lambda e, K: np.arange(K + 1))
    with pytest.raises(ConvergenceError, match="only 4 sign segments, need 5") as info:
        remez_best_approx(3)
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


if __name__ == "__main__":
    # rewrite src/absmean/_exchange_start.py from the closed-form start
    with pytest.MonkeyPatch.context() as mp:
        text = _start_module_text(_last_levelled_references(mp))
    (Path(__file__).resolve().parents[1] / "src" / "absmean" / "_exchange_start.py").write_text(text)
