"""Prior pairs, chi-square distances, and the constrained risk inequality."""

import dataclasses
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from absmean import lowerbound
from absmean.errors import (
    ConstructionError,
    DomainError,
    IntegrationError,
    PreconditionError,
    RangeError,
)
from absmean.lowerbound import (
    DiscreteModel,
    SymmetricDiscretePrior,
    chi_square_gaussian_mixtures,
    chi_square_mixture_1d,
    chi_square_product_n,
    chi_square_tail_bound_1d,
    construct_prior_pair,
    lower_bound_pipeline,
    minimax_lower_bound,
    random_discrete_model,
    scale_prior,
    select_kn_bounded,
    verify_constrained_risk,
)
from absmean.polyapprox import remez_best_approx
from absmean.rng import stream
from oracles import chi2_center_vs_pair, chi2_direct_nd, chi2_quad_1d, prior_asymmetry

# frozen best-approximation errors, half the functional gap of each pair
DELTAS = {
    2: 0.125,
    4: 0.06762089927778447,
    6: 0.0459290620668627,
    10: 0.027845118553550874,
}


# ---------------------------------------------------------------------------
# prior construction

def test_prior_pair_order_two_closed_form():
    nu0, nu1, delta = construct_prior_pair(2)
    assert delta == 0.125
    w0 = dict(zip(nu0.positions, nu0.weights))
    w1 = dict(zip(nu1.positions, nu1.weights))
    assert math.isclose(w0[0.0], 0.75, abs_tol=1e-12)
    assert math.isclose(w0[1.0], 0.125, abs_tol=1e-12)
    assert math.isclose(w0[-1.0], 0.125, abs_tol=1e-12)
    assert math.isclose(w1[0.5], 0.5, abs_tol=1e-12)
    assert math.isclose(w1[-0.5], 0.5, abs_tol=1e-12)


@pytest.mark.parametrize("k", range(2, 81, 2))
def test_prior_pair_moment_matching_and_gap(k):
    nu0, nu1, delta = construct_prior_pair(k)
    for order in range(k + 1):
        assert abs(nu1.moment(order) - nu0.moment(order)) < 1e-10
    gap = nu1.mean_abs() - nu0.mean_abs()
    assert math.isclose(gap, 2.0 * delta, rel_tol=1e-9)
    if k in DELTAS:
        assert math.isclose(delta, DELTAS[k], rel_tol=1e-11)
    # the pair's delta is exactly the best-approximation error at K = k/2
    assert math.isclose(delta, remez_best_approx(k // 2).delta, rel_tol=1e-12)


def test_prior_atoms_sit_on_alternation_points():
    sol = remez_best_approx(3)
    nu0, nu1, _ = construct_prior_pair(6)
    assert sorted(nu0.positions + nu1.positions) == sorted(sol.alternation_points)
    assert 0.0 in nu0.positions


def test_construct_prior_pair_validation():
    for bad in (1, 3, 0, -2, 82, 2.0, "2"):
        with pytest.raises(DomainError):
            construct_prior_pair(bad)


@pytest.mark.parametrize("k", range(2, 81, 2))
def test_prior_masses_are_the_exact_divided_differences(k):
    # on the float alternation points 0 = t_0 < ... < t_{K+1}, the mass at |t_j| is
    # proportional to 1 / prod_{i != j} (u_j - u_i), u = 2t^2 - 1, computed exactly here
    K = k // 2
    sol = remez_best_approx(K)
    t = [Fraction(x) for x in sol.alternation_points[K + 1:]]
    signs = sol.alternation_signs[K + 1:]
    exact = [abs(1 / math.prod(2 * (tj - ti) * (tj + ti) for i, ti in enumerate(t) if i != j))
             for j, tj in enumerate(t)]
    for prior, sign in zip(construct_prior_pair(k)[:2], (-1, 1)):
        total = sum(e for e, s in zip(exact, signs) if s == sign)
        got = {}
        for pos, w in zip(prior.positions, prior.weights):
            got[abs(pos)] = got.get(abs(pos), 0.0) + w
        want = {float(tj): float(e / total) for tj, e, s in zip(t, exact, signs) if s == sign}
        assert got.keys() == want.keys()
        for tj, w in want.items():
            assert math.isclose(got[tj], w, rel_tol=1e-13, abs_tol=0.0), (k, tj)


def test_prior_pair_refuses_a_malformed_alternation_set(monkeypatch):
    # the exchange's own condition guard is covered in test_polyapprox.py; the pair
    # itself solves no system, and refuses signs that do not alternate like its
    # divided-difference weights, or points that are not strictly increasing
    sol = remez_best_approx(2)   # 7 points, the half set 0 < t_1 < t_2 < 1 at indices 3..6
    signs, points = list(sol.alternation_signs), list(sol.alternation_points)
    flipped = signs[:5] + [-signs[5]] + signs[6:]
    repeated = points[:5] + [points[4]] + points[6:]
    for bad in (dataclasses.replace(sol, alternation_signs=tuple(flipped)),
                dataclasses.replace(sol, alternation_points=tuple(repeated))):
        monkeypatch.setattr(lowerbound, "remez_best_approx", lambda K, bad=bad: bad)
        lowerbound._prior_pair_data.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstructionError):
                construct_prior_pair(4)
    monkeypatch.undo()
    lowerbound._prior_pair_data.cache_clear()
    assert construct_prior_pair(4)[2] == sol.delta


def test_prior_validation():
    with pytest.raises(ConstructionError):
        SymmetricDiscretePrior((0.5,), (1.0,))            # not symmetric
    with pytest.raises(ConstructionError):
        SymmetricDiscretePrior((-0.5, 0.5), (0.3, 0.4))   # mass 0.7
    with pytest.raises(ConstructionError):
        SymmetricDiscretePrior((-0.5, 0.5), (1.5, -0.5))  # negative weight
    with pytest.raises(ConstructionError):
        SymmetricDiscretePrior((), ())
    with pytest.raises(ConstructionError):
        SymmetricDiscretePrior((0.0,), (math.nan,))       # NaN mass


def test_prior_refuses_nested_positions_or_weights():
    for positions, weights in ((((-1.0,), (1.0,)), (0.5, 0.5)),
                               ((-1.0, 1.0), ((0.5,), (0.5,))),
                               (((-1.0,), (1.0,)), ((0.5,), (0.5,))),
                               (1.0, 1.0)):
        with pytest.raises(ConstructionError, match="one-dimensional and aligned"):
            SymmetricDiscretePrior(positions, weights)


def test_prior_validation_merges_atoms_at_12_decimals():
    # duplicate and 1e-14-apart atoms merge before the mirror comparison
    SymmetricDiscretePrior((0.5, 0.5, -0.5), (0.25, 0.25, 0.5))
    SymmetricDiscretePrior((0.5 + 1e-14, -0.5, 0.0), (0.4, 0.4, 0.2))
    SymmetricDiscretePrior((-0.25, 0.25), (0.5 + 4e-10, 0.5 - 4e-10))
    SymmetricDiscretePrior((0.0, -1.8e296, 1.8e296), (0.75, 0.125, 0.125))
    with pytest.raises(ConstructionError, match="not symmetric at t = -0.25$"):
        SymmetricDiscretePrior((0.0, -0.25, 0.25), (0.2, 0.4 + 2e-9, 0.4 - 2e-9))


def test_prior_positions_must_be_finite():
    # -inf mirrors +inf under the symmetry check, so finiteness is its own rule
    for positions in ((-math.inf, math.inf), (0.0, math.nan), (-1.0, 1.0, math.inf, -math.inf)):
        weights = (1.0 / len(positions),) * len(positions)
        with pytest.raises(ConstructionError, match="prior positions must be finite"):
            SymmetricDiscretePrior(positions, weights)
    # two scalings by 1e300 push every nonzero atom past the double range
    nu1 = scale_prior(construct_prior_pair(4)[1], 1e300)
    with pytest.raises(ConstructionError, match="prior positions must be finite, got -?inf$"):
        scale_prior(nu1, 1e300)


@given(st.lists(st.tuples(st.sampled_from([0.0, 0.125, 0.5, 0.5 + 1e-13, 0.75, 1.0]),
                          st.floats(0.0, 1.0),
                          st.sampled_from([0.0, 4e-10, -3e-9, 1.0]),
                          st.booleans()),
                min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_prior_symmetry_check_matches_the_dict_loop(atoms):
    # each entry: an atom t, a weight w, a mirror-weight perturbation, and
    # whether +t or -t comes first; a perturbation of 1.0 drops the mirror
    positions, weights = [], []
    for t, w, eps, flip in atoms:
        pair = [(t, w), (-t, w + eps)] if eps != 1.0 else [(t, w)]
        for pos, wt in (pair[::-1] if flip else pair):
            positions.append(pos)
            weights.append(max(wt, 0.0))
    total = sum(weights)
    if total == 0.0:
        return
    weights = [w / total for w in weights]
    if abs(sum(weights) - 1.0) > 1e-9:
        return
    expected = prior_asymmetry(positions, weights)
    if expected is None:
        SymmetricDiscretePrior(tuple(positions), tuple(weights))
    else:
        with pytest.raises(ConstructionError, match=f"not symmetric at t = {re.escape(str(expected))}$"):
            SymmetricDiscretePrior(tuple(positions), tuple(weights))


def test_prior_moment_order_is_checked():
    _, nu1, _ = construct_prior_pair(2)
    assert nu1.moment(0) == 1.0
    for order in (2.5, -1, True, "2", np.float64(2.0)):
        with pytest.raises(DomainError, match="order must be an integer"):
            nu1.moment(order)


@pytest.mark.parametrize("M, order", [(2.0, 2000), (1e300, 2)])
def test_prior_moment_overflow_raises_range_error(M, order):
    _, nu1, _ = construct_prior_pair(4)   # atoms at +-1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match=f"moment of order {order} overflows"):
            scale_prior(nu1, M).moment(order)


def test_scale_prior_scales_moments():
    nu0, nu1, _ = construct_prior_pair(4)
    M = 2.5
    s = scale_prior(nu1, M)
    assert math.isclose(s.mean_abs(), M * nu1.mean_abs(), rel_tol=1e-12)
    for order in (2, 4):
        assert math.isclose(s.moment(order), M**order * nu1.moment(order), rel_tol=1e-12)
    with pytest.raises(DomainError):
        scale_prior(nu0, 0.0)
    with pytest.raises(DomainError):
        scale_prior(nu0, math.inf)


# ---------------------------------------------------------------------------
# chi-square distances

@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 5.0, 8.0, 10.0, 15.0, 20.0, 30.0])
def test_chi_square_point_mass_closed_form(mu):
    # N(0,1) vs N(mu,1): I^2 = e^{mu^2} - 1, past the double range at mu = 30
    got = chi_square_gaussian_mixtures([0.0], [1.0], [mu], [1.0])
    if mu * mu > math.log(np.finfo(float).max):
        assert got == math.inf
    else:
        assert math.isclose(got, math.expm1(mu * mu), rel_tol=1e-8)


def test_chi_square_matches_adaptive_quadrature():
    # every sweep pair above roundoff; below 1e-12 the value is cancellation in f1 - f0
    checked = 0
    for k in range(2, 81, 2):
        nu0, nu1, _ = construct_prior_pair(k)
        for M in (0.5, 1.0, 2.0):
            mu0, mu1 = scale_prior(nu0, M), scale_prior(nu1, M)
            want = chi2_quad_1d(mu0.positions, mu0.weights, mu1.positions, mu1.weights)
            if want > 1e-12:
                assert math.isclose(chi_square_mixture_1d(mu0, mu1), want, rel_tol=1e-9), (k, M)
                checked += 1
    assert checked >= 10


@pytest.mark.parametrize("h", [2.0, 5.0, 10.0, 15.0])
def test_chi_square_across_a_deep_valley_of_f0(h):
    # f0's atoms 2h apart: 1/f0 peaks at the origin over a width of about 1/h
    got = chi_square_gaussian_mixtures([-h, h], [0.5, 0.5], [0.0], [1.0])
    assert math.isclose(got, chi2_center_vs_pair(h), rel_tol=1e-9)


def test_chi_square_refuses_a_window_it_cannot_cover():
    with pytest.raises(IntegrationError):
        chi_square_gaussian_mixtures([0.0], [1.0], [1e6], [1.0])
    with pytest.raises(DomainError):
        chi_square_gaussian_mixtures([0.0, math.inf], [0.5, 0.5], [0.0], [1.0])
    with pytest.raises(DomainError):
        chi_square_gaussian_mixtures([0.0], [math.nan], [1.0], [1.0])


def test_chi_square_error_estimate_past_the_tolerance_raises(monkeypatch):
    # panels 16 wide leave the fine and coarse Gauss rules about 4.5e-8 apart on e - 1
    monkeypatch.setattr(lowerbound, "_PANEL_WIDTH", 16.0)
    with pytest.raises(IntegrationError, match="quadrature error estimate") as info:
        chi_square_gaussian_mixtures((0.0,), (1.0,), (1.0,), (1.0,))
    assert info.value.achieved_tolerance == pytest.approx(4.5e-8, rel=0.05)


def test_chi_square_asymmetric_atoms_off_the_panel_grid():
    # no panel edge falls on an atom, and neither mixture is symmetric
    a = ([-0.3, 0.9, 2.2], [0.2, 0.5, 0.3])
    b = ([0.1, 1.7], [0.6, 0.4])
    for (p0, w0), (p1, w1) in ((a, b), (b, a)):
        got = chi_square_gaussian_mixtures(p0, w0, p1, w1)
        assert math.isclose(got, chi2_quad_1d(p0, w0, p1, w1), rel_tol=1e-9)


@pytest.mark.parametrize("mu", [0.37, 3.3, 7.77, 12.5])
def test_chi_square_point_mass_off_the_panel_grid(mu):
    got = chi_square_gaussian_mixtures([0.0], [1.0], [mu], [1.0])
    assert math.isclose(got, math.expm1(mu * mu), rel_tol=1e-8)


def test_chi_square_deep_valley_off_the_panel_grid():
    got = chi_square_gaussian_mixtures([-7.3, 7.3], [0.5, 0.5], [0.0], [1.0])
    assert math.isclose(got, chi2_center_vs_pair(7.3), rel_tol=1e-9)


def test_chi_square_node_count_does_not_grow_with_the_atoms():
    # 16501 atoms in [-1, 1]: a panel break at every atom would need more
    # than _MAX_PANELS panels; equal panels tile the window with 26 or fewer
    x = np.linspace(-1.0, 1.0, 16501)
    w = np.full(x.size, 1.0 / x.size)
    assert x.size > lowerbound._MAX_PANELS
    assert chi_square_gaussian_mixtures(x, w, x, w) < 1e-12
    got = chi_square_gaussian_mixtures(x, w, [0.0], [1.0])

    def integrand(y):
        f0 = float(np.dot(w, np.exp(-0.5 * (y - x) ** 2)))
        f1 = math.exp(-0.5 * y * y)
        return (f1 - f0) ** 2 / f0 / math.sqrt(2.0 * math.pi)

    # f0 stays above the double range's floor on [-30, 30]; the tails past it are below 1e-180
    want, _ = quad(integrand, -30.0, 30.0, epsabs=0.0, epsrel=1e-12, limit=500)
    assert math.isclose(got, want, rel_tol=1e-9)


def test_chi_square_refuses_a_window_past_the_double_range():
    # 2 * 1e308 overflows, so the window is infinite: refused, not an OverflowError
    with np.errstate(over="ignore"), pytest.raises(IntegrationError):
        chi_square_gaussian_mixtures([0.0], [1.0], [1e308], [1.0])


@pytest.mark.parametrize("M", [1e160, 1e308])
def test_pipeline_refuses_atoms_far_apart_without_an_overflow_warning(M):
    # the panel count (1e160) or the window itself (1e308) passes the double
    # range; under the suite's error::RuntimeWarning filter a numpy overflow
    # warning would escape in place of the IntegrationError
    with pytest.raises(IntegrationError, match="more than 16384 quadrature panels"):
        lower_bound_pipeline(100, M, k_n=2)


def test_chi_square_half_line_matches_the_full_line_on_every_sweep_pair():
    # moving nu0's origin by one ulp breaks the exact mirror symmetry without
    # moving the value, so that call integrates the whole window; the two
    # differ by the roundoff of f1 - f0, which stays below eps sqrt(I_1^2)
    eps = np.finfo(float).eps
    for k in range(2, 81, 2):
        nu0, nu1, _ = construct_prior_pair(k)
        for M in (0.5, 1.0, 2.0):
            mu0, mu1 = scale_prior(nu0, M), scale_prior(nu1, M)
            half = chi_square_mixture_1d(mu0, mu1)
            moved = list(mu0.positions)
            moved[moved.index(0.0)] = np.nextafter(0.0, 1.0)
            full = chi_square_gaussian_mixtures(moved, mu0.weights, mu1.positions, mu1.weights)
            if full > 1e-10:
                tol = 1e-12 * full + eps * math.sqrt(full)
            else:
                tol = 1e-28 + eps * math.sqrt(full)
            assert abs(half - full) <= tol, (k, M, half, full)


def test_chi_square_near_symmetric_mixtures_take_the_full_line():
    # f1's weights are mirror-symmetric only to the 1e-9 SymmetricDiscretePrior
    # allows.  Atoms at +-85: the half window [0, 263] needs 11178 panels of
    # width 4/170, the whole one 22355, past _MAX_PANELS
    p0, w0 = (-85.0, 85.0), (0.5, 0.5)
    p1, near = (-84.0, 84.0), (0.5 + 4e-10, 0.5 - 4e-10)
    SymmetricDiscretePrior(p1, near)
    got = chi_square_gaussian_mixtures(p0, w0, p1, (0.5, 0.5))
    assert math.isclose(got, math.expm1(1.0), rel_tol=1e-12)   # two unit shifts, far apart
    with pytest.raises(IntegrationError, match="more than 16384 quadrature panels"):
        chi_square_gaussian_mixtures(p0, w0, p1, near)
    # on a window both fit, the two agree
    p0, p1 = (-10.0, 10.0), (-9.0, 9.0)
    assert math.isclose(chi_square_gaussian_mixtures(p0, w0, p1, near),
                        chi_square_gaussian_mixtures(p0, w0, p1, (0.5, 0.5)), rel_tol=1e-12)


def test_chi_square_zero_for_identical_mixtures():
    nu0, _, _ = construct_prior_pair(2)
    assert chi_square_mixture_1d(nu0, nu0) < 1e-12


@pytest.mark.parametrize("n,quad", [(1, 40), (2, 40), (3, 40), (4, 24), (5, 20)])
def test_product_identity_against_tensor_quadrature(n, quad):
    nu0, nu1, _ = construct_prior_pair(2)
    mu0 = scale_prior(nu0, 0.8)
    mu1 = scale_prior(nu1, 0.8)
    I1_sq = chi_square_mixture_1d(mu0, mu1)
    product = chi_square_product_n(I1_sq, n)
    direct = chi2_direct_nd(
        mu0.positions, mu0.weights, mu1.positions, mu1.weights, n, quad_points=quad
    )
    assert math.isclose(product, direct, rel_tol=1e-6)


def test_product_identity_edge_cases():
    assert chi_square_product_n(0.0, 10) == 0.0
    assert math.isclose(chi_square_product_n(0.5, 2), 1.5**2 - 1.0, rel_tol=1e-14)
    assert chi_square_product_n(math.inf, 3) == math.inf
    assert chi_square_product_n(10.0, 10**6) == math.inf   # saturates, no overflow
    with pytest.raises(DomainError):
        chi_square_product_n(-0.1, 2)
    with pytest.raises(DomainError):
        chi_square_product_n(0.5, 0)


@pytest.mark.parametrize("k_n", [2, 4, 6])
@pytest.mark.parametrize("M", [0.5, 1.0, 2.0])
def test_tail_bound_dominates_matched_pair_distance(k_n, M):
    # with moments matched through order k_n only the tail of the series
    # survives, so the computed distance must sit below the tail bound
    nu0, nu1, _ = construct_prior_pair(k_n)
    I1_sq = chi_square_mixture_1d(scale_prior(nu0, M), scale_prior(nu1, M))
    assert I1_sq <= chi_square_tail_bound_1d(M, k_n) * (1.0 + 1e-9)


@pytest.mark.parametrize(("M", "k_n"), [(0.5, 2), (1.0, 2), (3.0, 4), (5.0, 20), (10.0, 90), (21.7, 1)])
def test_tail_bound_matches_the_closed_form(M, k_n):
    # sum_{k > k_n} M^{2k}/k! = e^{M^2} - sum_{k <= k_n} M^{2k}/k!, no cancellation here
    m2 = M * M
    head = math.fsum(math.exp(k * math.log(m2) - math.lgamma(k + 1)) for k in range(k_n + 1))
    expected = math.exp(0.5 * m2) * (math.exp(m2) - head)
    assert math.isclose(chi_square_tail_bound_1d(M, k_n), expected, rel_tol=1e-10)


@pytest.mark.parametrize("M", [38.0, 100.0])
@pytest.mark.parametrize("k_n", [2, 8, 80])
def test_tail_bound_past_the_double_range_is_inf(M, k_n):
    # e^{M^2/2} alone leaves the double range at M = 38
    assert chi_square_tail_bound_1d(M, k_n) == math.inf
    assert chi_square_product_n(chi_square_tail_bound_1d(M, k_n), 10) == math.inf


def test_tail_bound_at_the_ends_of_the_double_range():
    assert chi_square_tail_bound_1d(1e-200, 2) == 0.0    # M * M underflows
    # e^722 times a tail near e^-324000: zero, not an overflow
    assert chi_square_tail_bound_1d(38.0, 100_000) == 0.0


@pytest.mark.parametrize("k_n", [2, 4, 6, 10, 14])
@pytest.mark.parametrize("M", [0.5, 1.0, 2.0])
def test_single_term_form_dominates_tail_sum(k_n, M):
    # the paper's closed form e^{3M^2/2} (e M^2 / k_n)^{k_n} bounds the summed tail
    tail = chi_square_tail_bound_1d(M, k_n)
    assert math.exp(1.5 * M * M) * (math.e * M * M / k_n) ** k_n >= tail


def test_mixture_distance_guard(monkeypatch, fresh_pair_cache):
    # the pipeline refuses a distance past its analytic bound: with the tail
    # bound patched to 0, the k = 2, M = 1 quadrature (far above the roundoff
    # floor, so it stands) exceeds it
    monkeypatch.setattr(lowerbound, "chi_square_tail_bound_1d", lambda M, k_n: 0.0)
    with pytest.raises(ConstructionError, match=r"^I\^2 = .* exceeds its analytic bound 0\.0$"):
        lower_bound_pipeline(100, 1.0, k_n=2)
    # an infinite bound checks nothing
    monkeypatch.setattr(lowerbound, "chi_square_tail_bound_1d", lambda M, k_n: math.inf)
    lowerbound._pair_terms.cache_clear()
    assert lower_bound_pipeline(100, 1.0, k_n=2)["I"] > 0.0


# ---------------------------------------------------------------------------
# cutoff selection and the assembled bound

def test_select_kn_bounded_values():
    assert select_kn_bounded(10**4) == 8
    assert select_kn_bounded(10**6) == 10
    assert select_kn_bounded(10**12) == 14
    for n in (17, 10**4, 10**8, 10**15):
        assert select_kn_bounded(n) % 2 == 0
    with pytest.raises(DomainError):
        select_kn_bounded(16)


def test_minimax_lower_bound_branches():
    out = minimax_lower_bound(0.4, 0.01, 1.0)
    assert out.hypothesis_holds
    assert out.value == ((0.4 - 0.01) / 3.0) ** 2
    # gap swallowed by the variance term: bound degenerates to zero
    starved = minimax_lower_bound(0.4, 10.0, 1.0)
    assert starved.value == 0.0 and not starved.hypothesis_holds
    saturated = minimax_lower_bound(0.4, 0.01, math.inf)
    assert saturated.value == 0.0 and not saturated.hypothesis_holds
    for gap, v0, I in ((0.4, 0.01, -0.5), (0.4, -0.01, 1.0), (math.inf, 0.01, 1.0), (0.4, math.nan, 1.0)):
        with pytest.raises(DomainError):
            minimax_lower_bound(gap, v0, I)


@pytest.mark.parametrize("M", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("n", [10**4, 10**10])
@pytest.mark.parametrize("k_n", [2, 8, 40])
def test_pipeline_record_vouches_for_its_bound(k_n, n, M):
    # the record's own numbers give its bound through the one shipped formula
    rec = lower_bound_pipeline(n, M, k_n=k_n)
    again = minimax_lower_bound(rec["m_gap"], math.sqrt(rec["v0_sq"]), rec["I"])
    assert rec["bound_value"].hex() == again.value.hex()


def test_pipeline_record_structure_and_identities():
    n, M = 10**4, 1.0
    rec = lower_bound_pipeline(n, M)
    assert set(rec) == {"k_n", "delta_k", "m_gap", "v0_sq", "I", "bound_value"}
    assert rec["k_n"] == select_kn_bounded(n) == 8
    # gap scales linearly with M: m1 - m0 = 2 M delta_k
    assert math.isclose(rec["m_gap"], 2.0 * M * rec["delta_k"], rel_tol=1e-9)
    assert rec["bound_value"] > 0.0
    assert rec["I"] >= 0.0
    nu0 = scale_prior(construct_prior_pair(8)[0], M)
    assert math.isclose(
        rec["v0_sq"], (nu0.moment(2) - nu0.mean_abs() ** 2) / n, rel_tol=1e-9
    )
    # explicit k_n is honored
    rec2 = lower_bound_pipeline(n, M, k_n=6)
    assert rec2["k_n"] == 6
    assert math.isclose(rec2["delta_k"], DELTAS[6], rel_tol=1e-11)


def test_pipeline_bound_shrinks_with_n():
    # kept at a fixed prior order, more coordinates mean a larger distance
    # and a thinner gap advantage, so the bound value must not grow
    vals = [lower_bound_pipeline(n, 1.0, k_n=8)["bound_value"] for n in (10**4, 10**5, 10**6)]
    assert vals[0] >= vals[1] >= vals[2] >= 0.0


def test_pipeline_survives_roundoff_in_the_distance_at_huge_n():
    rec = lower_bound_pipeline(10**22, 0.5, k_n=40)
    assert rec["I"] >= 0.0 and rec["bound_value"] >= 0.0


@pytest.fixture
def fresh_pair_cache():
    # the per-(k, M) terms are cached for the whole process: start and leave it empty
    lowerbound._pair_terms.cache_clear()
    yield
    lowerbound._pair_terms.cache_clear()


def test_pipeline_falls_back_to_the_tail_bound_only_at_the_roundoff_floor(monkeypatch, fresh_pair_cache):
    # k = 40, M = 0.5: the tail bound is about 7e-75
    tail = chi_square_tail_bound_1d(0.5, 40)
    monkeypatch.setattr(lowerbound, "chi_square_mixture_1d", lambda mu0, mu1: 1e-30)
    rec = lower_bound_pipeline(10**22, 0.5, k_n=40)
    assert rec["I"] == math.sqrt(chi_square_product_n(tail, 10**22))
    # above the floor a value past the bound is not roundoff, and the guard still refuses it
    lowerbound._pair_terms.cache_clear()
    monkeypatch.setattr(lowerbound, "chi_square_mixture_1d", lambda mu0, mu1: 1e-20)
    with pytest.raises(ConstructionError, match="exceeds its analytic bound"):
        lower_bound_pipeline(10**10, 0.5, k_n=40)


@pytest.mark.parametrize(
    "n, M, k_n",
    [(100, [1.0], 4), (100, math.nan, 4), (100, math.inf, 4), (100, True, 4), (100, 0.0, 4),
     (100, -1.0, 4), (100, 1.0, 5), (100, 1.0, 82), (100, 1.0, True), (0, 1.0, 4),
     (10**4, 1.0, [4]), ([100], 1.0, 4), (math.nan, 1.0, None)],
)
def test_pipeline_rejects_bad_arguments_before_the_pair_cache(n, M, k_n):
    with pytest.raises(DomainError):
        lower_bound_pipeline(n, M, k_n=k_n)


def test_pipeline_records_do_not_depend_on_the_pair_cache(fresh_pair_cache):
    calls = [(n, M, k) for k in (4, 10, 40) for M in (0.5, 2.0) for n in (100, 10**6, 10**22)]
    before = [lower_bound_pipeline(n, M, k_n=k) for n, M, k in calls]
    lowerbound._pair_terms.cache_clear()
    after = [lower_bound_pipeline(n, M, k_n=k) for n, M, k in reversed(calls)][::-1]
    for cold, warm in zip(before, after):
        assert cold.keys() == warm.keys()
        for key in cold:
            assert float(cold[key]).hex() == float(warm[key]).hex(), key


def test_pipeline_computes_the_distance_once_per_pair(monkeypatch, fresh_pair_cache):
    seen = []
    distance = lowerbound.chi_square_mixture_1d

    def counted(mu0, mu1):
        seen.append(mu0.positions)
        return distance(mu0, mu1)

    monkeypatch.setattr(lowerbound, "chi_square_mixture_1d", counted)
    pairs = [(4, 0.5), (4, 1.0), (10, 1.0)]
    for n in (100, 10**6, 10**12):
        for k, M in pairs:
            lower_bound_pipeline(n, M, k_n=k)
    assert seen == [scale_prior(construct_prior_pair(k)[0], M).positions for k, M in pairs]
    # the same pair given as an int radius, a numpy radius or a numpy k is the same key
    lower_bound_pipeline(100, np.float64(0.5), k_n=np.int64(4))
    lower_bound_pipeline(100, 1, k_n=4)
    assert len(seen) == len(pairs)

def test_pair_terms_match_the_public_path_on_every_sweep_pair(fresh_pair_cache):
    # the pipeline scales the pair without re-checking it; the checked path gives the same bits
    for k in range(2, 81, 2):
        nu0, nu1, delta = construct_prior_pair(k)
        for M in (0.5, 1.0, 2.0):
            mu0, mu1 = scale_prior(nu0, M), scale_prior(nu1, M)
            I1_sq = chi_square_gaussian_mixtures(mu0.positions, mu0.weights, mu1.positions, mu1.weights)
            tail = chi_square_tail_bound_1d(M, k)
            if I1_sq <= lowerbound._ROUNDOFF_FLOOR:
                I1_sq = min(I1_sq, tail)
            m0 = mu0.mean_abs()
            want = (delta, abs(mu1.mean_abs() - m0), max(mu0.moment(2) - m0 * m0, 0.0), I1_sq, tail)
            got = lowerbound._pair_terms(k, M)
            assert [x.hex() for x in got] == [x.hex() for x in want], (k, M)


def test_new_pair_builds_no_prior_and_public_entry_points_keep_their_checks(monkeypatch, fresh_pair_cache):
    for k in (6, 80):
        construct_prior_pair(k)   # the prior-pair cache is warm
    built = []
    check = SymmetricDiscretePrior.__post_init__

    def counted(prior):
        built.append(prior.positions)
        check(prior)

    monkeypatch.setattr(SymmetricDiscretePrior, "__post_init__", counted)
    lower_bound_pipeline(100, 1.5, k_n=6)
    lower_bound_pipeline(10**6, 0.75, k_n=80)
    assert built == []
    nu0, nu1, _ = construct_prior_pair(6)
    scale_prior(nu0, 1.5)
    assert len(built) == 1   # the public path still builds and checks

    def mixture(positions, weights):   # an object that is not a prior
        return type("Mixture", (), {"positions": positions, "weights": weights})()

    bad = {
        "infinite positions": mixture((-math.inf, math.inf), (0.5, 0.5)),
        "NaN positions": mixture((math.nan, math.nan), (0.5, 0.5)),
        "bool positions": mixture((True, True), (0.5, 0.5)),
        "mass 1.4": mixture((-0.5, 0.5), (0.7, 0.7)),
        "negative weight": mixture((-0.5, 0.0, 0.5), (0.5, -0.5, 1.0)),
        "NaN weights": mixture((-0.5, 0.5), (math.nan, math.nan)),
    }
    for why, mu in bad.items():
        with pytest.raises(ConstructionError):
            scale_prior(mu, 2.0)
        for args in ((mu, nu1), (nu0, mu), (mu, mu)):
            with pytest.raises(DomainError):
                chi_square_mixture_1d(*args)
        with pytest.raises(DomainError):
            chi_square_gaussian_mixtures(mu.positions, mu.weights, nu1.positions, nu1.weights)
    for M in (math.nan, math.inf, True, 0.0):
        with pytest.raises(DomainError):
            scale_prior(nu0, M)


# ---------------------------------------------------------------------------
# constrained risk inequality by exact enumeration

def _bayes_rule(model: DiscreteModel, weights) -> np.ndarray:
    T = np.asarray(model.T_values)
    P = np.asarray(model.obs_probs)
    w = np.asarray(weights)
    joint = w[:, None] * P
    return (T @ joint) / joint.sum(axis=0)


def test_cri_holds_for_random_models_and_rules():
    rng = stream(2024)
    checked = 0
    for _ in range(200):
        model, mu0, mu1 = random_discrete_model(rng)
        T = np.asarray(model.T_values)
        m = len(model.obs_probs[0])
        rules = [
            np.full(m, float(np.dot(mu0, T))),            # constant at the mu0 mean
            _bayes_rule(model, mu0),
            _bayes_rule(model, 0.5 * (mu0 + mu1)),
            rng.uniform(-1.0, 1.0, size=m),
        ]
        for rule in rules:
            risk0 = float(
                np.dot(mu0, np.sum(np.asarray(model.obs_probs) * (rule[None, :] - T[:, None]) ** 2, axis=1))
            )
            rec = verify_constrained_risk(model, mu0, mu1, rule, eps=math.sqrt(risk0) + 1e-9)
            assert rec.all_ok, rec
            checked += 1
    assert checked == 800


def test_cri_precondition_enforced():
    model = DiscreteModel((0.0, 1.0), ((0.7, 0.3), (0.3, 0.7)))
    # constant rule far from both values has risk well above eps^2 = 1e-4
    with pytest.raises(PreconditionError):
        verify_constrained_risk(model, (0.5, 0.5), (0.5, 0.5), (5.0, 5.0), eps=0.01)


def test_cri_rule_shape_validation():
    model = DiscreteModel((0.0, 1.0), ((0.7, 0.3), (0.3, 0.7)))
    with pytest.raises(DomainError):
        verify_constrained_risk(model, (0.5, 0.5), (0.5, 0.5), (0.5,), eps=10.0)
    with pytest.raises(DomainError):
        verify_constrained_risk(model, (0.6, 0.6), (0.5, 0.5), (0.5, 0.5), eps=10.0)


def test_cri_refuses_non_finite_priors_and_rules():
    model = DiscreteModel((0.0, 1.0), ((0.7, 0.3), (0.3, 0.7)))
    for mu0, mu1, rule in (((math.nan, 0.5), (0.5, 0.5), (0.5, 0.5)),
                           ((0.5, 0.5), (0.5, math.nan), (0.5, 0.5)),
                           ((0.5, 0.5), (0.5, 0.5), (math.nan, 0.5)),
                           ((0.5, 0.5), (0.5, 0.5), (0.5, math.inf))):
        with pytest.raises(DomainError, match="priors and rule must be finite"):
            verify_constrained_risk(model, mu0, mu1, rule, eps=10.0)


def test_cri_refuses_a_negative_budget():
    # with -eps a valid rule used to come back as a false violation
    rng = stream(0, 0, 81, 0)
    for _ in range(20):
        model, mu0, mu1 = random_discrete_model(rng)
        T, P = np.asarray(model.T_values), np.asarray(model.obs_probs)
        rule = rng.uniform(-1.0, 1.0, size=P.shape[1])
        eps = math.sqrt(float(np.dot(mu0, np.sum(P * (rule[None, :] - T[:, None]) ** 2, axis=1)))) * 1.000001
        assert verify_constrained_risk(model, mu0, mu1, rule, eps).all_ok
        with pytest.raises(DomainError, match="eps must be >= 0"):
            verify_constrained_risk(model, mu0, mu1, rule, -eps)
    # a zero budget stays valid: an exact rule under a point-mass mu0
    model = DiscreteModel((0.0, 1.0), ((0.7, 0.3), (0.3, 0.7)))
    assert verify_constrained_risk(model, (1.0, 0.0), (0.0, 1.0), (0.0, 0.0), 0.0).all_ok


def test_discrete_model_refuses_non_finite_entries():
    with pytest.raises(ConstructionError, match="observation rows must be positive and sum to 1"):
        DiscreteModel((0.0, 1.0), ((math.nan, 0.5), (0.5, 0.5)))
    with pytest.raises(ConstructionError, match="observation rows must be positive and sum to 1"):
        DiscreteModel((0.0, 1.0), ((math.inf, 0.5), (0.5, 0.5)))
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ConstructionError, match="T_values must be finite"):
            DiscreteModel((0.0, bad), ((0.5, 0.5), (0.5, 0.5)))


def test_discrete_model_validation():
    with pytest.raises(ConstructionError):
        DiscreteModel((), ())
    with pytest.raises(ConstructionError):
        DiscreteModel((0.0, 1.0), ((0.5, 0.5),))
    with pytest.raises(ConstructionError):
        DiscreteModel((0.0,), ((0.5, 0.4),))              # row sums to 0.9
    with pytest.raises(ConstructionError):
        DiscreteModel((0.0,), ((1.0, 0.0),))              # zero entry
