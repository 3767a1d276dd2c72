"""The argument policy: check_int / check_real and every entry point that uses them."""

import math

import numpy as np
import pytest

from absmean.errors import MAX_N, ConstructionError, DomainError, check_int, check_real
from absmean.estimators import (
    EstimatorSpec,
    delta_component,
    estimate_bounded,
    estimate_sparse,
    estimate_unbounded,
    growing_radius,
    hybrid_component,
    select_K_growing,
    select_K_star,
    unbounded_params,
)
from absmean.harness import (
    AlternationAtoms,
    ConstantAt,
    CustomVector,
    RunConfig,
    Scenario,
    TwoSpike,
    ZeroVector,
    bound_compliance_report,
    draw_theta,
)
from absmean.harness.engine import RiskReport
from absmean.hermite import hermite_eval, hermite_eval_batch, hermite_second_moment
from absmean.lowerbound import (
    DiscreteModel,
    SymmetricDiscretePrior,
    chi_square_gaussian_mixtures,
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
from absmean.polyapprox import build_G_K, remez_best_approx
from absmean.rng import derive_seed, stream

HUGE = 10**400   # an integer no double can hold


# ---------------------------------------------------------------------------
# the helpers

def test_check_int_accepts_python_and_numpy_integers():
    for value in (3, np.int64(3), np.int8(3), np.uint64(3)):
        out = check_int("k", value, 1, 5)
        assert out == 3 and type(out) is int
    assert check_int("k", HUGE) == HUGE   # no bound, no limit
    assert check_int("k", -7) == -7


def test_check_int_rejections():
    for value in (True, False, np.bool_(True), 3.0, np.float64(3.0), "3", None, [3], 3 + 0j):
        with pytest.raises(DomainError, match="must be an integer, got"):
            check_int("k", value)
    with pytest.raises(DomainError, match=r"k must be an integer >= 1, got 0"):
        check_int("k", 0, low=1)
    with pytest.raises(DomainError, match=r"k must be an integer <= 5, got 6"):
        check_int("k", 6, high=5)


def test_check_real_accepts_finite_ints_and_floats():
    for value in (2, 2.0, np.int64(2), np.float64(2.0), np.float32(2.0), np.uint8(2)):
        out = check_real("M", value)
        assert out == 2.0 and type(out) is float
    assert check_real("M", 10**300) == 1e300
    assert check_real("M", -1.5) == -1.5


def test_check_real_rejections():
    for value in (True, np.bool_(False), "1.0", None, [1.0], 1j):
        with pytest.raises(DomainError, match="must be a real number, got"):
            check_real("M", value)
    for value in (math.inf, -math.inf, math.nan, np.float64("inf"), HUGE, -HUGE):
        with pytest.raises(DomainError, match="M must be finite, got"):
            check_real("M", value)
    with pytest.raises(DomainError, match=r"finite and > 1"):
        check_real("c", 1.0, above=1.0)   # the bound is strict
    assert check_real("c", 1.0000001, above=1.0) == 1.0000001


def test_error_messages_stay_one_short_line():
    for value in (HUGE, 10**5000, [10**5000], "x" * 500):
        with pytest.raises(DomainError) as info:
            check_real("M", value)
        text = str(info.value)
        assert "\n" not in text and len(text) < 80
    with pytest.raises(DomainError, match=r"<= 1\.79769e\+308, got an integer of 1329 bits"):
        check_int("n", HUGE, 1, MAX_N)


# ---------------------------------------------------------------------------
# every entry point follows the policy

_Y = np.zeros(32)
_NU0, _NU1, _ = construct_prior_pair(2)
_ALT = AlternationAtoms(k=2, M=1.0)
_SPEC = EstimatorSpec(variant="bounded", M=1.0)
_SCENARIO = Scenario(id="s", family=ZeroVector(), n=32, replications=2, estimator=_SPEC)
_MODEL, _MU0, _MU1 = random_discrete_model(np.random.default_rng(0))
_G3 = build_G_K(3)
_REPORT = RiskReport("s", 32, "bounded", 1, 1.0, 2, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0)

# (argument, call with the argument in its slot, a valid value)
INT_ARGS = [
    ("select_K_star.n", lambda v: select_K_star(v), 100),
    ("select_K_growing.n", lambda v: select_K_growing(v), 100),
    ("growing_radius.n", lambda v: growing_radius(v, 2.0), 100),
    ("unbounded_params.n", lambda v: unbounded_params(v), 100),
    ("estimate_bounded.K", lambda v: estimate_bounded(_Y, 1.0, v), 1),
    ("estimate_sparse.k_n", lambda v: estimate_sparse(_Y, v, 0), 4),
    ("estimate_sparse.seed", lambda v: estimate_sparse(_Y, 4, v), 0),
    ("estimate_unbounded.seed", lambda v: estimate_unbounded(_Y, v), 0),
    ("delta_component.n", lambda v: delta_component(0.5, v), 100),
    ("hybrid_component.n", lambda v: hybrid_component(0.5, 0.0, v), 100),
    ("EstimatorSpec.K_override", lambda v: EstimatorSpec(variant="bounded", M=1.0, K_override=v), 2),
    ("EstimatorSpec.k_n", lambda v: EstimatorSpec(variant="sparse", k_n=v), 4),
    ("EstimatorSpec.seed", lambda v: EstimatorSpec(variant="unbounded", seed=v), 0),
    ("hermite_eval.k", lambda v: hermite_eval(v, 0.5), 3),
    ("hermite_eval_batch.k_max", lambda v: hermite_eval_batch(v, 0.5), 3),
    ("hermite_second_moment.k", lambda v: hermite_second_moment(v, 0.5), 3),
    ("stream.seed", lambda v: stream(v), 0),
    ("stream.lane", lambda v: stream(0, v), 1),
    ("stream.scenario", lambda v: stream(0, 1, v), 0),
    ("stream.replication", lambda v: stream(0, 1, 0, v), 0),
    ("derive_seed.seed", lambda v: derive_seed(v, 1, 0, 0), 0),
    ("build_G_K.K", lambda v: build_G_K(v), 2),
    ("remez_best_approx.K", lambda v: remez_best_approx(v), 2),
    ("construct_prior_pair.k", lambda v: construct_prior_pair(v), 2),
    ("chi_square_product_n.n", lambda v: chi_square_product_n(0.1, v), 100),
    ("chi_square_tail_bound_1d.k_n", lambda v: chi_square_tail_bound_1d(1.0, v), 2),
    ("select_kn_bounded.n", lambda v: select_kn_bounded(v), 100),
    ("lower_bound_pipeline.n", lambda v: lower_bound_pipeline(v, 1.0, k_n=2), 100),
    ("lower_bound_pipeline.k_n", lambda v: lower_bound_pipeline(100, 1.0, k_n=v), 2),
    ("AlternationAtoms.k", lambda v: AlternationAtoms(k=v, M=1.0), 2),
    ("TwoSpike.count", lambda v: TwoSpike(v, 1.0), 1),
    ("Scenario.n", lambda v: Scenario(id="s", family=ZeroVector(), n=v, replications=2, estimator=_SPEC), 32),
    ("Scenario.replications",
     lambda v: Scenario(id="s", family=ZeroVector(), n=32, replications=v, estimator=_SPEC), 2),
    ("draw_theta.n", lambda v: draw_theta(_ALT, v, stream(0)), 8),
    ("SymmetricDiscretePrior.moment.order", lambda v: _NU1.moment(v), 2),
    ("RunConfig.seed", lambda v: RunConfig(scenarios=(_SCENARIO,), seed=v, output_path="o.csv"), 1),
    ("RunConfig.workers",
     lambda v: RunConfig(scenarios=(_SCENARIO,), seed=1, output_path="o.csv", workers=v), 1),
]

REAL_ARGS = [
    ("growing_radius.c", lambda v: growing_radius(100, v), 2.0),
    ("estimate_bounded.M", lambda v: estimate_bounded(_Y, v, 1), 1.0),
    ("EstimatorSpec.M", lambda v: EstimatorSpec(variant="bounded", M=v), 1.0),
    ("EstimatorSpec.c", lambda v: EstimatorSpec(variant="growing", c=v), 2.0),
    ("hermite_eval.y", lambda v: hermite_eval(2, v), 0.5),
    ("hermite_second_moment.mu", lambda v: hermite_second_moment(2, v), 0.5),
    ("EvenPolynomial.x", lambda v: _G3(v), 0.5),
    ("scale_prior.M", lambda v: scale_prior(_NU0, v), 1.0),
    ("chi_square_tail_bound_1d.M", lambda v: chi_square_tail_bound_1d(v, 2), 1.0),
    ("chi_square_product_n.I1_sq", lambda v: chi_square_product_n(v, 100), 0.1),
    ("minimax_lower_bound.gap", lambda v: minimax_lower_bound(v, 0.03, 0.5), 0.2),
    ("minimax_lower_bound.v0", lambda v: minimax_lower_bound(0.2, v, 0.5), 0.03),
    ("minimax_lower_bound.I", lambda v: minimax_lower_bound(0.2, 0.03, v), 0.5),
    ("verify_constrained_risk.eps",
     lambda v: verify_constrained_risk(_MODEL, _MU0, _MU1, [0.0] * len(_MODEL.obs_probs[0]), v), 10.0),
    ("lower_bound_pipeline.M", lambda v: lower_bound_pipeline(100, v, k_n=2), 1.0),
    ("bound_compliance_report.slack", lambda v: bound_compliance_report([_REPORT], slack=v), 2.0),
    ("ConstantAt.value", lambda v: ConstantAt(v), 1.0),
    ("AlternationAtoms.M", lambda v: AlternationAtoms(k=2, M=v), 1.0),
    ("TwoSpike.value", lambda v: TwoSpike(1, v), 1.0),
    ("CustomVector.values", lambda v: CustomVector((0.0, v)), 1.0),
    ("RunConfig.compliance_slack",
     lambda v: RunConfig(scenarios=(_SCENARIO,), seed=1, output_path="o.csv", compliance_slack=v), 2.0),
]


@pytest.mark.parametrize(
    "call, good, numpy_type",
    [(call, good, np.int64) for _, call, good in INT_ARGS]
    + [(call, good, np.float64) for _, call, good in REAL_ARGS],
    ids=[name for name, _, _ in INT_ARGS + REAL_ARGS],
)
def test_entry_point_follows_the_argument_policy(call, good, numpy_type):
    call(good)
    call(numpy_type(good))
    for bad in (True, str(good), HUGE):
        with pytest.raises(DomainError):
            call(bad)


# ---------------------------------------------------------------------------
# array arguments: numeric text is text

def test_hermite_batch_refuses_text():
    # numpy reads [0.5, True] as two floats: a bool among numbers is refused all the same
    for y in (["1", "2"], np.array(["0.5"]), [1.0, "2"], [True, False], [0.5, True], (0.5, np.True_),
              [1.0, 1j], [[1.0], [1.0, 2.0]]):
        with pytest.raises(DomainError, match="y must hold real numbers"):
            hermite_eval_batch(2, y)
    assert hermite_eval_batch(2, [1, 2]).tolist() == [[1.0, 1.0], [1.0, 2.0], [0.0, 3.0]]


def test_even_polynomial_refuses_text():
    for x in (["0.5"], np.array(["0.5"]), [0.5, "1"], [True, False], [0.5, True], [0.5, 1j],
              [[0.5], [0.5, 1.0]]):
        with pytest.raises(DomainError, match="x must hold real numbers"):
            _G3(x)
    assert _G3([0, 1]).tolist() == [_G3(0.0), _G3(1.0)]


def test_constrained_risk_refuses_text():
    rows = ((0.5, 0.5), (0.5, 0.5))
    for T in (("0.5", "-0.5"), (True, False), (0.0, True), (0.5, 1j)):
        with pytest.raises(ConstructionError, match="T_values must hold real numbers"):
            DiscreteModel(T, rows)
    for P in ((("0.5", "0.5"), ("0.5", "0.5")), ((0.5, 0.5), (0.5, np.False_)), ((0.5, 0.5), (1.0,))):
        with pytest.raises(ConstructionError, match="observation rows must hold real numbers"):
            DiscreteModel((0.5, -0.5), P)
    rule = [0.0] * len(_MODEL.obs_probs[0])
    for name, call, good in (
        ("mu0", lambda v: verify_constrained_risk(_MODEL, v, _MU1, rule, 10.0), _MU0),
        ("mu1", lambda v: verify_constrained_risk(_MODEL, _MU0, v, rule, 10.0), _MU1),
        ("rule", lambda v: verify_constrained_risk(_MODEL, _MU0, _MU1, v, 10.0), rule),
    ):
        call(good)
        for bad in ([str(x) for x in good], [bool(i % 2) for i in range(len(good))], [*good[:-1], True]):
            with pytest.raises(DomainError, match=f"{name} must hold real numbers"):
                call(bad)


def test_chi_square_refuses_text():
    with pytest.raises(DomainError, match="must hold real numbers"):
        chi_square_gaussian_mixtures(["0"], ["1"], ["0.5"], ["1"])
    with pytest.raises(DomainError, match="weights1 must hold real numbers"):
        chi_square_gaussian_mixtures([0.0], [1.0], [0.5], ["1"])
    with pytest.raises(DomainError, match="positions0 must hold real numbers"):
        chi_square_gaussian_mixtures([0.0, True], [0.5, 0.5], [0.0], [1.0])


def test_prior_refuses_text():
    with pytest.raises(ConstructionError, match="prior positions must hold real numbers"):
        SymmetricDiscretePrior(("-0.5", "0.5"), ("0.5", "0.5"))
    with pytest.raises(ConstructionError, match="prior positions must hold real numbers"):
        SymmetricDiscretePrior((-1.0, True), (0.5, 0.5))
    with pytest.raises(ConstructionError, match="prior weights must hold real numbers"):
        SymmetricDiscretePrior((-0.5, 0.5), ("0.5", "0.5"))
