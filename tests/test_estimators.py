"""Estimator variants: frozen values, selection rules, split mechanics, exact risk."""

import math
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from absmean import estimators
from absmean.errors import DataError, DomainError, RangeError
from absmean.estimators import (
    VARIANTS,
    EstimatorSpec,
    approx_coefficients,
    delta_component,
    estimate_bounded,
    estimate_growing,
    estimate_sparse,
    estimate_unbounded,
    growing_radius,
    hybrid_component,
    run_estimator,
    select_K_growing,
    select_K_star,
    split_samples,
    unbounded_params,
)
from absmean.rng import stream
from oracles import exact_series_risk

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# frozen point values

def test_bounded_on_zero_vector_best_basis():
    # g0 - g2 = 1/8 - 1 with the degree-2 best coefficients (1/8, 1)
    assert estimate_bounded(np.zeros(8), 1.0, 1, "best") == -0.875


def test_bounded_on_zero_vector_chebyshev_basis():
    got = estimate_bounded(np.zeros(8), 1.0, 1, "chebyshev")
    assert math.isclose(got, -2.0 / math.pi, rel_tol=1e-15)


def test_direct_estimator_outputs_are_pinned_bit_for_bit():
    # every public estimator runs through run_estimator; these are the bits
    # each returned when it still had its own body
    y = stream(11).standard_normal(5000) * 0.7
    pinned = [
        (estimate_bounded(y, 1.0, 3), "-0x1.2a6ff9c0a55fdp+3"),
        (estimate_bounded(y, 2.0, 5, "chebyshev"), "-0x1.3277d2e1def40p+2"),
        (estimate_growing(y), "0x1.8aacd0eaf784bp-1"),
        (estimate_growing(y, 3.0, 2), "0x1.f0dca00094564p-2"),
        (estimate_unbounded(y, 4), "0x1.bfb05bd58f9efp+2"),
        (estimate_sparse(y, 10, 4), "-0x1.71373f09db75dp+2"),
        (delta_component(0.3, 1000), "0x1.1b3573918f27ep+2"),
        (hybrid_component(0.3, 9.0, 1000), "0x1.3333333333333p-2"),
    ]
    for got, want in pinned:
        assert got.hex() == want


def test_series_component_at_origin():
    # K = 1 at n = 1e6: g0 M_n + g2 / M_n * H_2(0)
    M_n, K, _ = unbounded_params(10**6)
    assert K == 1
    g = approx_coefficients(1, "chebyshev")
    expected = g[0] * M_n - g[1] / M_n
    got = delta_component(0.0, 10**6)
    assert math.isclose(got, expected, rel_tol=1e-15)
    assert math.isclose(got, 6.281497078089716, rel_tol=1e-14)


# ---------------------------------------------------------------------------
# cutoff and interval rules

def test_select_K_star_values():
    assert select_K_star(17) == 1
    assert select_K_star(10**4) == 2
    assert select_K_star(10**6) == 3
    assert select_K_star(10**12) == 4


def test_select_K_star_rejects_small_or_nonintegral():
    for bad in (16, 0, -3, 1.5e6, "1000"):
        with pytest.raises(DomainError):
            select_K_star(bad)


def test_select_K_growing_values():
    assert select_K_growing(17) == 1          # clamped at 1
    assert select_K_growing(2**70) == 3


def test_growing_radius_closed_form_and_validation():
    assert math.isclose(growing_radius(10**4, 2.0), math.sqrt(2.0 * math.log(10**4)), rel_tol=1e-15)
    with pytest.raises(DomainError):
        growing_radius(10**4, 1.0)
    with pytest.raises(DomainError):
        growing_radius(10**4, math.inf)
    with pytest.raises(DomainError):
        growing_radius(5, 2.0)


def test_unbounded_params_closed_forms():
    n = 10**6
    M_n, K, thr = unbounded_params(n)
    assert math.isclose(M_n, 8.0 * math.sqrt(math.log(n)), rel_tol=1e-15)
    assert K == 1
    assert math.isclose(thr, 2.0 * math.sqrt(2.0 * math.log(n)), rel_tol=1e-15)
    # K grows with n through the log2(n)/12 rule
    assert unbounded_params(2**36)[1] == 3


# ---------------------------------------------------------------------------
# sample splitting

def test_split_recombination_and_determinism():
    y = stream(99).standard_normal(200) + 1.5
    x1, x2 = split_samples(y, seed=7)
    again1, again2 = split_samples(y, seed=7)
    assert np.array_equal(x1, again1) and np.array_equal(x2, again2)
    # (x1 + x2) / sqrt(2) = y exactly up to rounding
    assert np.allclose(x1 + x2, SQRT2 * y, rtol=0, atol=1e-12)
    other1, _ = split_samples(y, seed=8)
    assert not np.array_equal(x1, other1)


def test_split_halves_are_decorrelated():
    # for y ~ N(theta, 1) the halves are independent N(theta/sqrt(2), 1);
    # the y noise and the injected noise cancel in the covariance
    y = stream(123).standard_normal(200_000)
    x1, x2 = split_samples(y, seed=3)
    r = float(np.corrcoef(x1, x2)[0, 1])
    assert abs(r) < 0.01
    assert abs(float(x1.std()) - 1.0) < 0.01
    assert abs(float(x2.std()) - 1.0) < 0.01


# ---------------------------------------------------------------------------
# hybrid branch logic

def test_hybrid_component_branches_on_companion_magnitude():
    n = 10**6
    _, _, thr = unbounded_params(n)
    x1 = np.asarray([0.4, 0.4, -3.0, -3.0])
    x2 = np.asarray([0.0, thr * 1.001, thr, -thr * 2.0])
    out = hybrid_component(x1, x2, n)
    assert out[0] == delta_component(0.4, n)
    assert out[1] == 0.4                      # companion above threshold: plain |x1|
    assert out[2] == delta_component(-3.0, n)  # boundary counts as small
    assert out[3] == 3.0


def test_hybrid_component_scalar_and_shape_checks():
    n = 10**6
    assert hybrid_component(2.0, 100.0, n) == 2.0
    assert hybrid_component(2.0, 0.0, n) == delta_component(2.0, n)
    with pytest.raises(DataError):
        hybrid_component(np.zeros(3), np.zeros(4), n)
    # a non-finite companion fails the small-signal test; it must not pick the |x1| branch
    with pytest.raises(DataError):
        hybrid_component(1.0, float("nan"), 1000)
    with pytest.raises(DataError):
        hybrid_component(1.0, float("inf"), 1000)


def test_series_component_cap_and_finiteness():
    n = 100
    # far outside the working interval the raw series blows past the cap n
    assert delta_component(1e6, n) == float(n)
    with pytest.raises(DataError):
        delta_component(float("nan"), n)


def test_unbounded_equals_sparse_on_pure_large_signal():
    # every |x2| lands above the threshold, so both reduce to sqrt(2) mean |x1|
    y = np.full(64, 100.0)
    u = estimate_unbounded(y, seed=5)
    s = estimate_sparse(y, k_n=64, seed=5)
    x1, _ = split_samples(y, seed=5)
    assert u == s
    assert math.isclose(u, SQRT2 * float(np.abs(x1).mean()), rel_tol=1e-15)


def test_sparse_normalizes_by_support_size():
    y = np.full(64, 100.0)
    whole = estimate_sparse(y, k_n=64, seed=5)
    quarter = estimate_sparse(y, k_n=16, seed=5)
    assert math.isclose(quarter, 4.0 * whole, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# input validation

def test_data_validation_errors():
    with pytest.raises(DataError):
        estimate_bounded(np.zeros((2, 2)), 1.0, 1)
    with pytest.raises(DataError):
        estimate_bounded(np.asarray([]), 1.0, 1)
    with pytest.raises(DataError):
        estimate_bounded(np.asarray([0.0, math.nan]), 1.0, 1)
    with pytest.raises(DataError):
        estimate_bounded(np.asarray([math.inf, 0.0]), 1.0, 1)


_BOUNDED_K1 = EstimatorSpec("bounded", M=1.0, K_override=1)


@pytest.mark.parametrize("call", [
    lambda: run_estimator(_BOUNDED_K1, ["a", "b"]),
    lambda: run_estimator(_BOUNDED_K1, [[1.0, 2.0], [3.0]]),
    lambda: run_estimator(_BOUNDED_K1, np.array([1 + 2j, 3.0])),   # not silently its real part
    lambda: run_estimator(_BOUNDED_K1, 1.0),
    lambda: run_estimator(_BOUNDED_K1, np.array(["0.5", 1.0], dtype=object)),
    lambda: split_samples(["a"], 0),
    lambda: split_samples(np.ones((2, 2)), 0),
    lambda: delta_component("abc", 100),
    lambda: delta_component([1.0, None], 100),
    lambda: delta_component(np.ones((2, 2)), 100),
    lambda: hybrid_component(np.zeros((2, 3)), np.zeros((2, 3)), 1000),
    lambda: hybrid_component([1.0, 2j], [0.0, 0.0], 1000),
], ids=["text", "ragged", "complex", "scalar", "object-text", "split-text", "split-2d", "delta-text", "delta-none",
        "delta-2d", "hybrid-2d", "hybrid-complex"])
def test_malformed_data_raises_data_error(call):
    with pytest.raises(DataError):
        call()


def test_numbers_held_as_objects_convert():
    # Fractions, Decimals and ints past the int64 range are data; text is not
    y = [Fraction(1, 2), Decimal("0.25"), 10**20, 3]
    assert run_estimator(_BOUNDED_K1, y) == run_estimator(_BOUNDED_K1, [0.5, 0.25, 1e20, 3.0])
    assert delta_component(Fraction(1, 2), 100) == delta_component(0.5, 100)
    x1, x2 = split_samples(np.array(y, dtype=object), 4)
    assert np.array_equal(x1, split_samples([0.5, 0.25, 1e20, 3.0], 4)[0])
    with pytest.raises(DataError):
        hybrid_component([Fraction(1, 2), "0.5"], [0.0, 0.0], 1000)


def test_empty_data_raises_data_error_at_every_entry_point():
    for call in (lambda: run_estimator(_BOUNDED_K1, []), lambda: split_samples([], 0),
                 lambda: delta_component(np.array([]), 100), lambda: hybrid_component([], [], 100)):
        with pytest.raises(DataError):
            call()


def test_data_error_comes_before_domain_error():
    # n = 5 is below the hybrid cutoff rule's minimum, but the data is checked first
    for call in (lambda: delta_component("abc", 5), lambda: hybrid_component([math.nan], [0.0], 5),
                 lambda: run_estimator(EstimatorSpec("sparse", k_n=9), [[0.0], [1.0, 2.0]])):
        with pytest.raises(DataError):
            call()


def test_series_overflow_raises_range_error():
    # the degree-6 series overflows to nan at 1e80, degree 2 to inf at 1e200
    with pytest.raises(RangeError):
        estimate_bounded(np.array([1e80, 0.0]), 1.0, 3)
    with pytest.raises(RangeError):
        estimate_bounded(np.array([1e200, 0.0]), 1.0, 1)
    y = np.zeros(10**4)
    y[0] = 1e200
    with pytest.raises(RangeError):
        estimate_growing(y)
    # the hybrid series overflows to nan at 1e200 and to -inf at 1e100
    for call in (lambda: hybrid_component(1e200, 0.0, 2**24),
                 lambda: delta_component(1e200, 2**24),
                 lambda: delta_component(1e100, 2**24)):
        with pytest.raises(RangeError):
            call()


def test_kernel_chunks_do_not_change_a_coordinate():
    # the kernel runs 2^14 coordinates at a time; across chunk boundaries and
    # in the short last chunk every coordinate gets the bits it gets alone.
    # delta_component takes the series branch on every coordinate, and the
    # cap 2^48 is far above its values here
    rng = stream(11)
    x1 = 4.0 * rng.standard_normal(2 * 2**14 + 3)
    x2 = 8.0 * rng.standard_normal(x1.size)   # both hybrid branches occur
    series = delta_component(x1, 2**48)
    hybrid = hybrid_component(x1, x2, 2**36)
    assert np.all(np.abs(series) < 2.0**40)
    assert 0 < np.count_nonzero(hybrid == np.abs(x1)) < x1.size
    for i in range(x1.size):
        assert series[i] == delta_component(x1[i], 2**48)
        assert hybrid[i] == hybrid_component(x1[i], x2[i], 2**36)


# run_estimator reduces each 2^14-coordinate chunk to its sum; this n has
# three full chunks and a short fourth
CHUNKED_N = 3 * 2**14 + 5


def _full_array_series(y, spec):
    """The series on every coordinate in one kernel call over the whole vector."""
    scaled, _ = estimators._scaled_coefficients(spec, y.size)
    out, u, o, t = np.empty((4, y.size))
    estimators._clenshaw(y, scaled, out, u, o, t)
    return out


def test_chunk_pass_matches_full_array_references():
    y = 0.7 * stream(21).standard_normal(CHUNKED_N)
    y[::97] += 30.0   # these coordinates take the |x1| branch of the hybrids
    n, seed = CHUNKED_N, 6
    x1, x2 = split_samples(y, seed)
    _, _, threshold = unbounded_params(n)
    sparse = EstimatorSpec("sparse", k_n=500)
    sparse_terms = np.minimum(_full_array_series(x1, sparse), float(n) ** 2)
    sparse_terms = np.where(np.abs(x2) > threshold, np.abs(x1), sparse_terms)
    assert 0 < np.count_nonzero(sparse_terms == np.abs(x1)) < n
    bounded, growing = EstimatorSpec("bounded", M=1.0), EstimatorSpec("growing")
    cases = [
        (bounded, np.mean(_full_array_series(y, bounded))),
        (growing, np.mean(_full_array_series(y, growing))),
        (EstimatorSpec("unbounded"), SQRT2 * np.mean(hybrid_component(x1, x2, n))),
        (sparse, SQRT2 * sparse_terms.sum() / 500),
    ]
    for spec, reference in cases:
        assert run_estimator(spec, y, seed=seed) == pytest.approx(float(reference), rel=1e-14, abs=0)


class _EchoStream:
    """A stand-in split stream whose noise is the data itself, so x1 = sqrt(2) y,
    x2 = 0, and every coordinate takes the hybrid series branch."""

    def __init__(self, y):
        self.y, self.lo = y, 0

    def standard_normal(self, out):
        out[:] = self.y[self.lo:self.lo + out.size]
        self.lo += out.size
        return out


def test_overflow_in_the_last_chunk_raises_range_error(monkeypatch):
    y = np.zeros(CHUNKED_N)
    y[-1] = 1e200
    with pytest.raises(RangeError, match=r"degree-2 series overflows .* up to 1e\+200$"):
        estimate_bounded(y, 1.0, 1)
    # at this n the hybrid cutoff is K = 1, whose series overflows to +inf and
    # is capped; K = 2 (the cutoff from n = 2^24 on, too long a vector here)
    # overflows to nan at 1e200, which no cap hides
    params = estimators.unbounded_params
    monkeypatch.setattr(estimators, "unbounded_params", lambda n: (params(n)[0], 2, params(n)[2]))
    monkeypatch.setattr(estimators, "stream", lambda seed: _EchoStream(y))
    for spec in (EstimatorSpec("unbounded"), EstimatorSpec("sparse", k_n=3)):
        with pytest.raises(RangeError, match=r"up to 1\.41421e\+200$"):
            run_estimator(spec, y)
    # the message names the largest overflowing |x| over all chunks, as on the whole vector
    y[5] = 2e200
    with pytest.raises(RangeError, match=r"up to 2\.82843e\+200$") as whole:
        hybrid_component(SQRT2 * y, np.zeros_like(y), CHUNKED_N)
    with pytest.raises(RangeError) as chunked:
        estimate_unbounded(y, seed=0)
    assert str(chunked.value) == str(whole.value)


def test_abs_branch_overflow_in_a_later_chunk_is_silent():
    y = np.zeros(CHUNKED_N)
    y[-3:] = 1e200   # their series values overflow, but |x2| is huge, so |x1| is taken
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert estimate_unbounded(y, seed=0) == pytest.approx(3e200 / CHUNKED_N, rel=1e-12)
        assert estimate_sparse(y, 3, seed=0) == pytest.approx(1e200, rel=1e-12)


@pytest.mark.parametrize("spec", [EstimatorSpec("bounded", M=1.0), EstimatorSpec("growing"),
                                  EstimatorSpec("unbounded"), EstimatorSpec("sparse", k_n=64)],
                         ids=VARIANTS)
def test_run_estimator_allocates_no_vector_of_length_n(spec):
    # beyond the data it is given, an estimate holds O(2^14) doubles of scratch
    # and one boolean finiteness mask; an n-length float temporary would need n * 8 bytes
    n = 2**20
    y = stream(4).standard_normal(n)
    run_estimator(spec, y, seed=2)   # builds and caches the coefficients
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        run_estimator(spec, y, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * 8 / 2


def test_hybrid_overflow_on_the_abs_branch_is_silent():
    # huge coordinates fail the small-signal test, so |x1| is used and the
    # overflowing series value is discarded without a numpy warning
    y = np.zeros(64)
    y[:4] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert estimate_unbounded(y, seed=0) == pytest.approx(6.25e198, rel=1e-12)


def test_parameter_validation_errors():
    z = np.zeros(32)
    with pytest.raises(DomainError):
        estimate_bounded(z, 0.0, 1)
    with pytest.raises(DomainError):
        estimate_bounded(z, 1.0, 0)
    with pytest.raises(DomainError):
        estimate_bounded(z, 1.0, 1, basis="legendre")
    with pytest.raises(DomainError, match="basis must be one of"):
        approx_coefficients(2, "bogus")
    # K and basis are required: None does not fall back to the spec's defaults
    with pytest.raises(DomainError):
        estimate_bounded(z, 1.0, None)
    with pytest.raises(DomainError):
        estimate_bounded(z, 1.0, 1, basis=None)
    with pytest.raises(DomainError):
        estimate_sparse(z, k_n=33, seed=0)
    with pytest.raises(DomainError):
        estimate_sparse(z, k_n=0, seed=0)


def test_spec_validation():
    with pytest.raises(DomainError):
        EstimatorSpec(variant="bounded")              # M required
    with pytest.raises(DomainError):
        EstimatorSpec(variant="unbounded", K_override=2)
    with pytest.raises(DomainError):
        EstimatorSpec(variant="sparse")               # k_n required
    with pytest.raises(DomainError):
        EstimatorSpec(variant="growing", c=1.0)
    with pytest.raises(DomainError):
        EstimatorSpec(variant="bounded", M=1.0, c=0.5)  # c > 1 whatever the variant
    with pytest.raises(DomainError):
        EstimatorSpec(variant="unbounded", basis="best")
    with pytest.raises(DomainError):
        EstimatorSpec(variant="median")
    spec = EstimatorSpec(variant="bounded", M=1.0)
    assert spec.resolved_basis == "best"
    assert EstimatorSpec(variant="unbounded").resolved_basis == "chebyshev"


def test_run_estimator_dispatch_matches_direct_calls():
    y = stream(11).standard_normal(1000) * 0.3
    assert run_estimator(EstimatorSpec(variant="bounded", M=1.0), y) == estimate_bounded(
        y, 1.0, select_K_star(1000), "best"
    )
    assert run_estimator(EstimatorSpec(variant="growing"), y) == estimate_growing(y)
    assert run_estimator(EstimatorSpec(variant="unbounded"), y, seed=4) == estimate_unbounded(y, 4)
    assert run_estimator(EstimatorSpec(variant="sparse", k_n=10), y, seed=4) == estimate_sparse(
        y, 10, 4
    )


def test_run_estimator_checks_the_seed_for_every_variant():
    y = np.zeros(64)
    for spec in (EstimatorSpec("bounded", M=1.0), EstimatorSpec("growing"), EstimatorSpec("unbounded"),
                 EstimatorSpec("sparse", k_n=8)):
        for seed in ("x", True, -1, 2**200, 1.5):
            with pytest.raises(DomainError, match="^seed must be an integer"):
                run_estimator(spec, y, seed=seed)


def test_scaled_coefficients_are_shared_read_only():
    scaled, threshold = estimators._scaled_coefficients(EstimatorSpec(variant="bounded", M=1.0), 64)
    assert threshold == math.inf
    assert not scaled.flags.writeable
    with pytest.raises(ValueError):
        scaled[0] = 1.0
    again, _ = estimators._scaled_coefficients(EstimatorSpec(variant="bounded", M=1.0, c=7.0), 64)
    assert again is scaled


def test_coefficient_cache_is_not_keyed_on_the_seed():
    y = stream(3).standard_normal(64)
    estimate_unbounded(y, 0)
    before = estimators._coefficient_table.cache_info()
    for seed in range(1, 51):
        estimate_unbounded(y, seed)
    after = estimators._coefficient_table.cache_info()
    assert after.currsize == before.currsize
    assert after.hits == before.hits + 50


def test_sparse_and_unbounded_keep_their_own_constant_terms():
    n = 5000
    sparse, thr_sparse = estimators._scaled_coefficients(EstimatorSpec(variant="sparse", k_n=4), n)
    unbounded, thr_unbounded = estimators._scaled_coefficients(EstimatorSpec(variant="unbounded"), n)
    assert sparse[0] == 0.0 and unbounded[0] != 0.0
    assert np.array_equal(sparse[1:], unbounded[1:])
    assert thr_sparse == thr_unbounded == unbounded_params(n)[2]


# ---------------------------------------------------------------------------
# structural properties

@given(
    data=st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=2, max_size=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_bounded_is_permutation_invariant(data, seed):
    y = np.asarray(data)
    perm = stream(seed).permutation(len(data))
    a = estimate_bounded(y, 2.0, 2)
    b = estimate_bounded(y[perm], 2.0, 2)
    assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


@given(vals=st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_bounded_even_in_the_data(vals):
    # every term has even degree, so the estimate ignores signs of y
    y = np.asarray(vals)
    a = estimate_bounded(y, 1.5, 2)
    b = estimate_bounded(-y, 1.5, 2)
    assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def test_growing_matches_bounded_at_the_induced_radius():
    y = stream(21).standard_normal(10**4) * 0.2
    n = y.size
    M_n = growing_radius(n, 2.0)
    K = select_K_growing(n)
    direct = estimate_bounded(y, M_n, K, "chebyshev")
    assert math.isclose(estimate_growing(y, 2.0), direct, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# sampled mean against the exact risk oracle

def test_bounded_monte_carlo_mean_matches_exact_bias():
    # theta_i = 0.5 for all i; compare the sampled mean of T_hat with the
    # exact expectation computed by rational arithmetic
    n, reps, M, K = 50, 4000, 1.0, 2
    g = approx_coefficients(K, "best")
    scaled = [gk * M ** (1 - 2 * k) for k, gk in enumerate(g)]
    bias, err_var, _ = exact_series_risk([0.5], [1.0], scaled, n)
    rng = stream(314)
    ests = np.asarray(
        [estimate_bounded(0.5 + rng.standard_normal(n), M, K, "best") for _ in range(reps)]
    )
    exact_mean = 0.5 + bias
    stderr = math.sqrt(err_var / reps)
    assert abs(float(ests.mean()) - exact_mean) < 5.0 * stderr
    assert abs(float(ests.var()) - err_var * 1.0) < 5.0 * err_var / math.sqrt(reps)
