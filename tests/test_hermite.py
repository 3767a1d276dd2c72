"""Hermite module against exact rational oracles."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import roots_hermite

from absmean.errors import DegreeOverflowError, DomainError, RangeError
from absmean.estimators import approx_coefficients, estimate_bounded
from absmean.hermite import (
    MAX_DEGREE,
    hermite_eval,
    hermite_eval_batch,
    hermite_second_moment,
)
from absmean.polyapprox import _MAX_GK, _MAX_REMEZ_K
from oracles import hermite_exact, hermite_second_moment_exact

# dyadic floats convert to Fraction without rounding, so the oracle is exact
dyadic = st.integers(min_value=-64, max_value=64).map(lambda q: q / 16.0)


@given(k=st.integers(min_value=0, max_value=25), y=dyadic)
@settings(max_examples=300, deadline=None)
def test_eval_matches_exact_recurrence(k, y):
    exact = hermite_exact(k, Fraction(y))
    got = hermite_eval(k, y)
    assert math.isclose(got, float(exact), rel_tol=1e-12, abs_tol=1e-12)


def test_first_few_closed_forms():
    # H_0..H_4: 1, y, y^2-1, y^3-3y, y^4-6y^2+3
    for y in (-2.0, -0.5, 0.0, 0.3, 1.7):
        assert hermite_eval(0, y) == 1.0
        assert hermite_eval(1, y) == y
        assert math.isclose(hermite_eval(2, y), y * y - 1, rel_tol=1e-15, abs_tol=1e-15)
        assert math.isclose(hermite_eval(3, y), y ** 3 - 3 * y, rel_tol=1e-14, abs_tol=1e-14)
        assert math.isclose(hermite_eval(4, y), y ** 4 - 6 * y * y + 3, rel_tol=1e-14, abs_tol=1e-14)


@given(
    k_max=st.integers(min_value=0, max_value=30),
    ys=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_batch_agrees_with_scalar(k_max, ys):
    arr = np.asarray(ys)
    table = hermite_eval_batch(k_max, arr)
    assert table.shape == (k_max + 1,) + arr.shape
    for j in (0, k_max // 2, k_max):
        for i, y in enumerate(ys):
            assert table[j, i] == hermite_eval(j, y)


@given(data=st.data(), basis=st.sampled_from(["best", "chebyshev"]), M=st.sampled_from([0.5, 1.0, 2.0]),
       y=dyadic)
@settings(max_examples=200, deadline=None)
def test_estimator_series_matches_exact_hermite_sum(data, basis, M, y):
    # one coordinate: the estimate is sum_k g_{2k} M^{1-2k} H_{2k}(y) exactly,
    # for every K up to the basis' limit (40 best, 60 chebyshev)
    K = data.draw(st.integers(min_value=1, max_value=_MAX_REMEZ_K if basis == "best" else _MAX_GK), label="K")
    terms = [Fraction(g) * Fraction(M) ** (1 - 2 * k) * hermite_exact(2 * k, Fraction(y))
             for k, g in enumerate(approx_coefficients(K, basis))]
    scale = float(sum(abs(t) for t in terms))
    got = estimate_bounded(np.array([y]), M, K, basis)
    assert abs(got - float(sum(terms))) <= 1e-12 * scale


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0, 2.0, -1.5])
@pytest.mark.parametrize("k", [0, 1, 2, 5, 8, 12, 20])
def test_second_moment_matches_exact_formula(k, mu):
    exact = float(hermite_second_moment_exact(k, Fraction(mu)))
    assert math.isclose(hermite_second_moment(k, mu), exact, rel_tol=1e-12)


def test_second_moment_log_space_branch():
    # k=170, mu=1/8: the running term passes the direct-evaluation limit, so
    # the log-space branch produces the value; the result still fits a double.
    val = hermite_second_moment(170, 0.125)
    exact = hermite_second_moment_exact(170, Fraction(1, 8))
    assert math.isfinite(val)
    assert math.isclose(val, float(exact), rel_tol=1e-10)


def test_second_moment_overflow_raises():
    with pytest.raises(RangeError):
        hermite_second_moment(171, 0.0)
    with pytest.raises(RangeError):
        hermite_second_moment(170, 28.0)


def test_eval_overflow_raises_without_warnings():
    # hermevander's recurrence meets inf (and then inf - inf) past the double
    # range; each case used to return nan or inf with only a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: hermite_eval(200, 1e200), lambda: hermite_eval(150, 1e3),
                     lambda: hermite_eval_batch(3, [1e200]), lambda: hermite_eval_batch(3, [0.5, -1e200])):
            with pytest.raises(RangeError, match="overflows the double range"):
                call()
        # the largest degree at an in-range argument keeps its bits
        assert hermite_eval(MAX_DEGREE, 0.5).hex() == "0x1.23ff15fe45b7cp+620"
        assert hermite_eval(3, 1e100) == 1e300


def test_degree_cap_and_domain_errors():
    with pytest.raises(DegreeOverflowError):
        hermite_eval(MAX_DEGREE + 1, 0.5)
    assert np.isfinite(hermite_eval(MAX_DEGREE, 0.5))
    with pytest.raises(DomainError):
        hermite_eval(-1, 0.5)
    with pytest.raises(DomainError):
        hermite_eval(2, float("nan"))
    with pytest.raises(DomainError):
        hermite_eval_batch(3, np.array([1.0, np.inf]))
    with pytest.raises(DomainError):
        hermite_second_moment(2, float("inf"))


def test_orthonormality_under_gaussian_weight():
    # E h_i(X) h_j(X) = [i == j] for X ~ N(0,1) with h_k = H_k / sqrt(k!),
    # checked by Gauss-Hermite quadrature (exact for polynomial integrands
    # of this degree).
    x, w = roots_hermite(64)
    y = math.sqrt(2.0) * x
    w = w / math.sqrt(math.pi)
    table = hermite_eval_batch(20, y)
    norm = np.array([math.sqrt(math.factorial(k)) for k in range(21)])
    h = table / norm[:, None]
    gram = (h * w) @ h.T
    assert np.max(np.abs(gram - np.eye(21))) < 1e-8
