"""Scenario families, config parsing, the Monte Carlo engine, and reports."""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from absmean.errors import MAX_COUNT, DomainError, RangeError
from absmean.estimators import EstimatorSpec, approx_coefficients, estimate_unbounded, unbounded_params
from absmean.harness import (
    CSV_HEADER,
    AlternationAtoms,
    ConstantAt,
    CustomVector,
    RunConfig,
    Scenario,
    TwoSpike,
    ZeroVector,
    bound_compliance_report,
    draw_theta,
    load_config,
    parse_config,
    render_csv,
    render_json,
    resolve_parameters,
    run_config,
    run_scenario,
    write_reports,
)
from absmean.harness import engine
from absmean.harness.engine import RiskReport, analytic_bounds
from absmean.lowerbound import construct_prior_pair, scale_prior
from absmean.polyapprox import remez_best_approx
from absmean.rng import LANE_EST, LANE_OBS, LANE_THETA, stream
from oracles import even_error_exact, exact_series_risk


def _scaled(K: int, M: float, basis: str = "best"):
    g = approx_coefficients(K, basis)
    return [gk * M ** (1 - 2 * k) for k, gk in enumerate(g)]


def _scenario(family, n=40, reps=100, sid="s", **est_kwargs) -> Scenario:
    est_kwargs.setdefault("variant", "bounded")
    if est_kwargs["variant"] == "bounded":
        est_kwargs.setdefault("M", 1.0)
    return Scenario(id=sid, family=family, n=n, replications=reps, estimator=EstimatorSpec(**est_kwargs))


# ---------------------------------------------------------------------------
# theta families

def test_draw_theta_families():
    rng = stream(0)
    assert np.array_equal(draw_theta(ZeroVector(), 5, rng), np.zeros(5))
    assert np.array_equal(draw_theta(ConstantAt(0.7), 4, rng), np.full(4, 0.7))
    spikes = draw_theta(TwoSpike(3, 2.0), 6, rng)
    assert np.array_equal(spikes, [2.0, -2.0, 2.0, 0.0, 0.0, 0.0])
    custom = draw_theta(CustomVector((1.0, -2.0)), 2, rng)
    assert np.array_equal(custom, [1.0, -2.0])


def test_draw_theta_alternation_prior_support():
    fam = AlternationAtoms(k=2, M=2.0, prior="nu1")
    theta = draw_theta(fam, 1000, stream(1))
    assert set(np.unique(theta)) <= {-1.0, 1.0}   # 2 * (+-1/2)
    fam0 = AlternationAtoms(k=2, M=1.0, prior="nu0")
    theta0 = draw_theta(fam0, 1000, stream(1))
    assert set(np.unique(theta0)) <= {-1.0, 0.0, 1.0}


def test_draw_theta_alternation_is_one_multinomial_draw():
    # the atom counts come from one multinomial draw; equal atoms are adjacent
    fam = AlternationAtoms(k=6, M=1.5, prior="nu0")
    prior = scale_prior(construct_prior_pair(6)[0], 1.5)
    atoms, weights = np.asarray(prior.positions), np.asarray(prior.weights)
    rng, replay = stream(3, LANE_THETA), stream(3, LANE_THETA)
    for n in (1, 50, 1000):
        theta = draw_theta(fam, n, rng)
        assert np.array_equal(theta, np.repeat(atoms, replay.multinomial(n, weights / weights.sum())))
    assert rng.random() == replay.random()   # the same share of the stream was consumed


def test_draw_theta_errors():
    rng = stream(0)
    with pytest.raises(DomainError):
        draw_theta(TwoSpike(7, 1.0), 6, rng)
    with pytest.raises(DomainError):
        draw_theta(CustomVector((1.0,)), 2, rng)
    with pytest.raises(DomainError):
        draw_theta("zeros", 2, rng)


_ADD_TO_CASES = {
    "zero": lambda n: ZeroVector(),
    "constant": lambda n: ConstantAt(-0.35),
    "alternation-nu0": lambda n: AlternationAtoms(k=6, M=1.5, prior="nu0"),
    "alternation-k40": lambda n: AlternationAtoms(k=40, M=3.0),
    "two_spike": lambda n: TwoSpike(7, 2.5),
    "two_spike-full": lambda n: TwoSpike(n, -1.25),
    "custom": lambda n: CustomVector(tuple(np.sin(np.arange(n)).tolist())),
}


@pytest.mark.parametrize("make", list(_ADD_TO_CASES.values()), ids=list(_ADD_TO_CASES))
def test_add_to_is_noise_plus_draw_theta_bit_for_bit(make):
    # a family adds to y, in place, the theta draw_theta realizes from the
    # same share of the stream; its truth is mean |theta| up to summation order
    obs_rng = stream(4, LANE_OBS)
    for n in (8, 257, 2**16 + 3):
        family = make(n)
        rng, replay = stream(4, LANE_THETA, n), stream(4, LANE_THETA, n)
        for _ in range(3):
            noise = obs_rng.standard_normal(n)
            y = noise.copy()
            truth = family.add_to(y, rng)
            theta = draw_theta(family, n, replay)
            assert y.tobytes() == (noise + theta).tobytes()
            assert truth == pytest.approx(float(np.mean(np.abs(theta))), rel=1e-15, abs=0.0)
        assert rng.random() == replay.random()


@pytest.mark.parametrize("family, est", [
    (AlternationAtoms(k=10, M=1.0), {"variant": "unbounded"}),
    (TwoSpike(8, 3.0), {"variant": "sparse", "k_n": 8}),
], ids=["alternation", "two_spike"])
def test_replication_allocates_no_n_length_theta(family, est):
    # at n = 2^20 a float64 theta alone is 8 MiB; the estimator's 1 MiB
    # boolean finiteness mask is the only n-length array left
    n = 2**20
    s = _scenario(family, n=n, reps=2, **est)
    y = np.empty(n)
    theta_rng, obs_rng = stream(1, LANE_THETA), stream(1, LANE_OBS)
    engine.run_replication(s, theta_rng, obs_rng, 3, y)   # fills the coefficient caches
    tracemalloc.start()
    try:
        engine.run_replication(s, theta_rng, obs_rng, 4, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("make", list(_ADD_TO_CASES.values()), ids=list(_ADD_TO_CASES))
def test_add_to_allocates_no_vector_of_length_n(make):
    # what does not change between replications is built with the family, so
    # an add holds no float64 vector of length n (n * 8 bytes)
    n = 2**16
    family, rng, y = make(n), stream(2, LANE_THETA), np.zeros(n)
    family.add_to(y, rng)
    tracemalloc.start()
    try:
        family.add_to(y, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * 8 / 4


def test_custom_vector_from_any_sequence_compares_and_hashes_by_its_floats():
    given = np.arange(64.0)
    vectors = [CustomVector(given), CustomVector(list(range(64))), CustomVector(tuple(range(64)))]
    given[0] = -1.0   # the caller's array stays its own, and writable
    assert all(v == vectors[0] and hash(v) == hash(vectors[0]) for v in vectors)
    assert draw_theta(vectors[0], 64, stream(0))[0] == 0.0
    assert vectors[0].values == tuple(map(float, range(64)))
    assert all(type(t) is float for t in vectors[0].values)
    spec = EstimatorSpec(variant="bounded", M=1.0)
    a, b = (Scenario(id="c", family=v, n=64, replications=2, estimator=spec) for v in vectors[:2])
    assert a == b and hash(a) == hash(b)


def test_family_validation():
    with pytest.raises(DomainError):
        ConstantAt(math.inf)
    with pytest.raises(DomainError):
        AlternationAtoms(k=3, M=1.0)
    with pytest.raises(DomainError):
        AlternationAtoms(k=2, M=1.0, prior="nu2")
    with pytest.raises(DomainError):
        AlternationAtoms(k=2, M=0.0)
    with pytest.raises(DomainError):
        TwoSpike(0, 1.0)
    with pytest.raises(DomainError):
        CustomVector(())


# ---------------------------------------------------------------------------
# scenario and config validation

def test_scenario_validation():
    est = EstimatorSpec(variant="bounded", M=1.0)
    with pytest.raises(DomainError):
        Scenario(id="", family=ZeroVector(), n=8, replications=5, estimator=est)
    with pytest.raises(DomainError):
        Scenario(id="a", family=ZeroVector(), n=8, replications=1, estimator=est)
    with pytest.raises(DomainError):
        Scenario(id="a", family=CustomVector((1.0,)), n=8, replications=5, estimator=est)
    with pytest.raises(DomainError):
        Scenario(id="a", family=TwoSpike(9, 1.0), n=8, replications=5, estimator=est)
    with pytest.raises(DomainError, match="estimator must be an EstimatorSpec"):
        Scenario(id="a", family=ZeroVector(), n=8, replications=5, estimator={"variant": "bounded"})


def test_run_config_validation():
    s1 = _scenario(ZeroVector(), sid="a")
    s2 = _scenario(ZeroVector(), sid="a")
    with pytest.raises(DomainError):
        RunConfig(scenarios=(s1, s2), seed=1, output_path="out.csv")
    with pytest.raises(DomainError):
        RunConfig(scenarios=(), seed=1, output_path="out.csv")
    with pytest.raises(DomainError):
        RunConfig(scenarios=(s1,), seed=2**64, output_path="out.csv")
    with pytest.raises(DomainError):
        RunConfig(scenarios=(s1,), seed=1, output_path="out.csv", format="xml")
    with pytest.raises(DomainError):
        RunConfig(scenarios=(s1,), seed=1, output_path="out.csv", workers=0)


def _config_doc():
    return {
        "seed": 42,
        "output_path": "reports.csv",
        "format": "csv",
        "workers": 2,
        "scenarios": [
            {
                "id": "zero-bounded",
                "family": {"kind": "zero"},
                "n": 64,
                "replications": 10,
                "estimator": {"variant": "bounded", "M": 1.0, "K": 2, "basis": "best"},
            },
            {
                "id": "sparse-spikes",
                "family": {"kind": "two_spike", "count": 4, "value": 3.0},
                "n": 64,
                "replications": 10,
                "estimator": {"variant": "sparse", "kn": 4},
            },
        ],
    }


def test_parse_config_accepts_scenarios_at_their_limits():
    # the run-at-n check rejects n < 17 only where a rule reads n, K past 40
    # only for the best basis, and kn only above n
    for n, estimator in (
        (16, {"variant": "bounded", "M": 1.0, "K": 1}),
        (64, {"variant": "bounded", "M": 1.0, "K": 40}),
        (64, {"variant": "bounded", "M": 1.0, "K": 60, "basis": "chebyshev"}),
        (64, {"variant": "growing", "K": 60}),
        (17, {"variant": "sparse", "kn": 17}),
    ):
        doc = _config_doc()
        doc["scenarios"][1].update(n=n, estimator=estimator, family={"kind": "zero"})
        parse_config(json.dumps(doc))


def test_parse_config_round_trip(tmp_path):
    doc = _config_doc()
    cfg = parse_config(json.dumps(doc))
    assert cfg.seed == 42 and cfg.workers == 2 and cfg.format == "csv"
    assert [s.id for s in cfg.scenarios] == ["zero-bounded", "sparse-spikes"]
    assert cfg.scenarios[0].estimator.K_override == 2
    assert cfg.scenarios[1].estimator.k_n == 4
    assert isinstance(cfg.scenarios[1].family, TwoSpike)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert load_config(str(path)) == cfg


def test_parse_config_rejections():
    doc = _config_doc()
    for mutate in (
        lambda d: d.pop("seed"),
        lambda d: d.update(extra_key=1),
        lambda d: d["scenarios"][0].pop("replications"),
        lambda d: d["scenarios"][0].update(note="hi"),
        lambda d: d["scenarios"][0]["family"].update(kind="uniform"),
        lambda d: d["scenarios"][0]["estimator"].update(bandwidth=2.0),
        lambda d: d["scenarios"][0]["family"].update(value=1.0),   # zero takes no value
        lambda d: d["scenarios"][0]["family"].update(kind=["zero"]),
        lambda d: d["scenarios"][0]["estimator"].update(M="abc"),
        lambda d: d["scenarios"][0]["estimator"].update(c="x"),
        lambda d: d.update(compliance_slack="2"),
        lambda d: d.update(output_path=1),
        # booleans would otherwise pass as the integers 1 and 0
        lambda d: d["scenarios"][0]["estimator"].update(K=True),
        lambda d: d["scenarios"][1]["family"].update(value=True),
        lambda d: d["scenarios"][1]["family"].update(count=True),
        lambda d: d.update(seed=False),
        # inf does not parse as a radius constant; 1e999 reads as inf
        lambda d: d["scenarios"][0].update(estimator={"variant": "growing", "c": 1e999}),
        # the run seed drives the sample split, so the estimator takes none
        lambda d: d["scenarios"][1]["estimator"].update(seed=1),
        lambda d: d["scenarios"][0]["estimator"].update(M=10**400),
        lambda d: d.update(workers=10**400),
        # the second scenario's estimator could not run at its n
        lambda d: d["scenarios"][1].update(n=16, estimator={"variant": "unbounded"}),
        lambda d: d["scenarios"][1].update(n=16, estimator={"variant": "bounded", "M": 1.0}),
        lambda d: d["scenarios"][1].update(estimator={"variant": "bounded", "M": 1.0, "K": 41}),
        lambda d: d["scenarios"][1].update(estimator={"variant": "growing", "K": 61}),
        lambda d: d["scenarios"][1].update(n=17, estimator={"variant": "sparse", "kn": 18}),
    ):
        broken = json.loads(json.dumps(doc))
        mutate(broken)
        with pytest.raises(DomainError):
            parse_config(json.dumps(broken))
    with pytest.raises(DomainError):
        parse_config("{not json")
    with pytest.raises(DomainError):
        parse_config("[1, 2]")
    with pytest.raises(DomainError):   # past Python's int digit limit, not a JSONDecodeError
        parse_config('{"seed": ' + "1" * 5000 + "}")


# ---------------------------------------------------------------------------
# config parser properties

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_FAMILY_DOCS = st.one_of(
    st.just({"kind": "zero"}),
    st.builds(lambda v: {"kind": "constant", "value": v}, _FINITE),
    st.builds(lambda c, v: {"kind": "two_spike", "count": c, "value": v}, st.integers(1, 17), _FINITE),
    st.builds(lambda k, M, p: {"kind": "alternation", "k": k, "M": M, "prior": p},
              st.sampled_from([2, 4, 6]), _POSITIVE, st.sampled_from(["nu0", "nu1"])),
)
_ESTIMATOR_DOCS = st.one_of(
    st.builds(lambda M, K, b: {"variant": "bounded", "M": M, "K": K, "basis": b},
              _POSITIVE, st.integers(1, 40), st.sampled_from(["best", "chebyshev"])),
    st.builds(lambda c: {"variant": "growing", "c": c},
              st.floats(min_value=1.0, exclude_min=True, allow_infinity=False)),
    st.just({"variant": "unbounded"}),
    st.builds(lambda k: {"variant": "sparse", "kn": k}, st.integers(1, 17)),
)
_CONFIG_DOCS = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**64 - 1),
        "output_path": st.text(min_size=1),
        "scenarios": st.lists(
            st.fixed_dictionaries({
                "id": st.text(min_size=1),
                "family": _FAMILY_DOCS,
                "n": st.integers(17, MAX_COUNT),
                "replications": st.integers(2, MAX_COUNT),
                "estimator": _ESTIMATOR_DOCS,
            }),
            min_size=1, max_size=3, unique_by=lambda s: s["id"],
        ),
    },
    optional={
        "format": st.sampled_from(["csv", "json"]),
        "workers": st.integers(1, MAX_COUNT),
        "compliance_slack": _POSITIVE,
    },
)
_FAMILY_TYPES = {"zero": ZeroVector, "constant": ConstantAt, "two_spike": TwoSpike,
                 "alternation": AlternationAtoms}
_ESTIMATOR_KEYS = {"variant": "variant", "M": "M", "K": "K_override", "basis": "basis", "kn": "k_n",
                   "c": "c"}


@given(doc=_CONFIG_DOCS)
@settings(max_examples=150, deadline=None)
def test_parse_config_round_trips_through_json(doc):
    # every value written by json.dumps comes back in the field it names
    expected = RunConfig(
        scenarios=tuple(
            Scenario(
                id=s["id"],
                family=_FAMILY_TYPES[s["family"]["kind"]](
                    **{k: v for k, v in s["family"].items() if k != "kind"}),
                n=s["n"],
                replications=s["replications"],
                estimator=EstimatorSpec(**{_ESTIMATOR_KEYS[k]: v for k, v in s["estimator"].items()}),
            )
            for s in doc["scenarios"]
        ),
        seed=doc["seed"],
        output_path=doc["output_path"],
        format=doc.get("format", "csv"),
        workers=doc.get("workers", 1),
        compliance_slack=doc.get("compliance_slack", 2.0),
    )
    assert parse_config(json.dumps(doc)) == expected


def _field_paths(node, prefix=()):
    """The path to every key and list entry of a JSON document, outermost first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


_WORDS = st.sampled_from([
    "zero", "constant", "alternation", "two_spike", "custom", "bounded", "growing", "unbounded",
    "sparse", "best", "chebyshev", "csv", "json", "nu0", "nu1", "kind", "variant", "value", "",
])
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | _WORDS | st.text(max_size=6)
    | st.integers() | st.sampled_from([10**400, -10**400, 2**63, 2**64, 2**128, -1, 0, 1, 17, 10**19]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_WORDS | st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


def _parses_or_rejects(path, value) -> None:
    """Replace one field of _config_doc() by `value`: parse_config must
    return a RunConfig or raise DomainError, nothing else."""
    doc = _config_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        cfg = parse_config(json.dumps(doc))
    except DomainError:
        return
    assert isinstance(cfg, RunConfig)


@given(path=st.sampled_from(list(_field_paths(_config_doc()))), value=_ANY_JSON)
@settings(max_examples=400, deadline=None)
def test_parse_config_takes_any_json_in_any_field(path, value):
    _parses_or_rejects(path, value)


def test_parse_config_takes_edge_values_in_every_field():
    # every field against every value the random search might miss
    for path in _field_paths(_config_doc()):
        for value in (None, True, False, math.inf, -math.inf, math.nan, 10**400, -10**400, 2**64,
                      -1, 0, 0.5, "1", "", [], [1.0], {}):
            _parses_or_rejects(path, value)


# ---------------------------------------------------------------------------
# engine aggregation against the exact risk oracle

def test_run_scenario_matches_exact_risk_on_zero_vector():
    n, R, K, M = 40, 3000, 2, 1.0
    s = _scenario(ZeroVector(), n=n, reps=R, K_override=K)
    bias, err_var, mse = exact_series_risk([0.0], [1.0], _scaled(K, M), n)
    rep = run_scenario(s, seed=7)
    assert abs(rep.bias - bias) < 5.0 * math.sqrt(err_var / R)
    assert abs(rep.variance - err_var) < 5.0 * err_var * math.sqrt(2.0 / R)
    # exact bookkeeping identity of the aggregator
    assert math.isclose(rep.mse, rep.bias**2 + rep.variance, rel_tol=0, abs_tol=1e-15)
    assert rep.mc_stderr > 0.0
    assert rep.K == K and rep.M == M and rep.n == n and rep.replications == R
    assert rep.variant == "bounded" and rep.scenario_id == "s"


def test_run_scenario_matches_exact_risk_on_constant_vector():
    n, R, K, M = 40, 3000, 2, 1.0
    s = _scenario(ConstantAt(0.5), n=n, reps=R, K_override=K)
    bias, err_var, _ = exact_series_risk([0.5], [1.0], _scaled(K, M), n)
    rep = run_scenario(s, seed=11)
    assert abs(rep.bias - bias) < 5.0 * math.sqrt(err_var / R)
    assert abs(rep.estimate_mean - (0.5 + bias)) < 5.0 * math.sqrt(err_var / R)


def test_zero_and_constant_families_keep_their_reports():
    # these families draw no theta vector; every number is pinned to the
    # run that built one (n * 0.75 is exact, so the truths agree bit for bit)
    pinned = {
        ConstantAt(-0.75): (0.751917336694379, 0.0019173366943789514, 0.10938123587042994,
                            0.10938491205042955, 0.0161639880314048),
        ZeroVector(): (0.17645958129840414, 0.17645958129840414, 0.03575070615300918,
                       0.06688868998501728, 0.013803792401429855),
    }
    for family, numbers in pinned.items():
        rep = run_scenario(_scenario(family, n=64, reps=37), seed=3)
        assert (rep.estimate_mean, rep.bias, rep.variance, rep.mse, rep.mc_stderr) == numbers


def test_resolve_parameters_per_variant():
    assert resolve_parameters(EstimatorSpec(variant="bounded", M=3.0), 10**6) == (3, 3.0)
    K, M = resolve_parameters(EstimatorSpec(variant="growing", c=2.0), 10**4)
    assert K == 1 and math.isclose(M, math.sqrt(2 * math.log(10**4)))
    M_n, K_n, _ = unbounded_params(10**4)
    assert resolve_parameters(EstimatorSpec(variant="unbounded"), 10**4) == (K_n, M_n)


def test_analytic_bounds_sparse_scaling():
    n = 10**4
    ub, uv = analytic_bounds(EstimatorSpec(variant="unbounded"), n)
    sb, sv = analytic_bounds(EstimatorSpec(variant="sparse", k_n=100), n)
    assert math.isclose(sb, ub * (n / 100), rel_tol=1e-12)
    assert math.isclose(sv, uv * (n / 100) ** 2, rel_tol=1e-12)
    bb, bv = analytic_bounds(EstimatorSpec(variant="bounded", M=1.0, K_override=1), n)
    assert math.isclose(bb, 0.125, rel_tol=1e-12)            # M * delta_2
    assert math.isclose(bv, 2.0 * math.e * 256.0 / n, rel_tol=1e-12)


@pytest.mark.parametrize("n", [10**2, 10**4, 10**6])
def test_growing_bounds_hold_against_the_exact_risk(n):
    spec = EstimatorSpec(variant="growing")
    K, M = resolve_parameters(spec, n)
    bias_bound, var_bound = analytic_bounds(spec, n)
    scaled = _scaled(K, M, "chebyshev")
    for t in (0.0, M / 2, M):
        bias, err_var, _ = exact_series_risk([t], [1.0], scaled, n)
        assert abs(bias) <= bias_bound
        assert err_var <= var_bound
        if t == 0.0:   # the truncation's error is largest at the origin
            assert abs(bias) == pytest.approx(bias_bound, rel=1e-12, abs=0)


@pytest.mark.parametrize("M", [27.0, 26.6])
def test_bounds_past_the_double_range_fail_before_any_replication(M, monkeypatch):
    # e^{M^2} overflows math.exp at M = 27; at M = 26.6 it is finite but the
    # product is not.  Either way the run stops before its first replication.
    spec = EstimatorSpec(variant="bounded", M=M, K_override=1)
    with pytest.raises(RangeError, match="double range"):
        analytic_bounds(spec, 64)

    def no_replication(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(engine, "run_replication", no_replication)
    s = Scenario(id="big-M", family=ZeroVector(), n=64, replications=4, estimator=spec)
    with pytest.raises(RangeError) as exc_info:
        run_scenario(s, seed=1)
    assert str(exc_info.value).startswith("scenario 'big-M': ")


@pytest.mark.parametrize("basis", ["best", "chebyshev"])
@pytest.mark.parametrize("K", [5, 20, 25, 30, 40])
def test_bounded_bias_bound_holds_for_the_coefficients_used(K, basis):
    # the estimator's mean is M p(theta/M) for p with the double monomial
    # coefficients it runs with; evaluated exactly, their error passes the
    # certified error of the Chebyshev form from K ~ 20 on
    M = 2.5
    bound, _ = analytic_bounds(EstimatorSpec("bounded", M=M, K_override=K, basis=basis), 100)
    certified = remez_best_approx(K).delta if basis == "best" else 2.0 / (math.pi * (2 * K + 1))
    points = np.concatenate([np.linspace(0.0, 1.0, 257), remez_best_approx(K).alternation_points])
    actual = even_error_exact(approx_coefficients(K, basis), points)
    assert M * actual <= bound * (1 + 1e-12)
    assert M * certified <= bound * (1 + 1e-12)
    if K <= 5:
        assert bound == pytest.approx(M * certified, rel=1e-12, abs=0)
    if K >= 25:
        assert actual > 5 * certified


# ---------------------------------------------------------------------------
# determinism

def test_worker_count_does_not_change_results():
    s = _scenario(AlternationAtoms(k=2, M=1.0), n=64, reps=40, K_override=1)
    serial = run_scenario(s, seed=3, scenario_index=0, workers=1)
    pooled = run_scenario(s, seed=3, scenario_index=0, workers=3)
    assert serial == pooled


def test_pool_is_capped_by_cpu_count(monkeypatch):
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr("absmean.harness.engine.concurrent.futures.ProcessPoolExecutor", InProcessPool)
    s = _scenario(AlternationAtoms(k=2, M=1.0), n=64, reps=40, K_override=1)
    capped = run_scenario(s, seed=3, scenario_index=0, workers=64)
    serial = run_scenario(s, seed=3, scenario_index=0, workers=1)
    assert sizes and max(sizes) <= 2
    assert render_csv([capped]) == render_csv([serial])


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the process pool by an in-process one that runs the tasks last
    first, returns their results in task order and records each pool's size."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return reversed([fn(x) for x in reversed(list(items))])

    monkeypatch.delenv("ABSMEAN_WORKERS", raising=False)
    monkeypatch.setattr("absmean.harness.engine.concurrent.futures.ProcessPoolExecutor", InProcessPool)
    return sizes


def _three_scenarios(R: int):
    return (
        _scenario(AlternationAtoms(k=2, M=1.0), n=64, reps=R, sid="alt", variant="unbounded"),
        _scenario(ConstantAt(0.5), n=32, reps=R, sid="const", K_override=2),
        _scenario(TwoSpike(4, 3.0), n=64, reps=R, sid="spikes", variant="sparse", k_n=4),
    )


def test_blocked_run_is_byte_identical_for_any_worker_count(fake_pool, monkeypatch):
    # R = 37 is not a multiple of the block size, so every scenario ends in a
    # partial block; the fake pool runs the blocks in reverse order
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    texts = {
        render_csv(run_config(RunConfig(_three_scenarios(37), seed=3, output_path="r.csv", workers=w)))
        for w in (1, 2, 3)
    }
    assert len(texts) == 1
    assert fake_pool == [2, 3]   # workers = 1 runs here, without a pool


def test_run_config_opens_one_pool_for_all_scenarios(fake_pool, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    run_config(RunConfig(_three_scenarios(20), seed=3, output_path="r.csv", workers=64))
    assert len(fake_pool) == 1 and fake_pool[0] <= os.cpu_count()


def test_pool_dispatch_is_chunked_and_largest_n_first(monkeypatch):
    calls = []

    class RecordingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            items = list(items)
            calls.append((chunksize, [(s.n, b) for s, _, _, b in items]))
            return map(fn, items)

    monkeypatch.delenv("ABSMEAN_WORKERS", raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr("absmean.harness.engine.concurrent.futures.ProcessPoolExecutor", RecordingPool)
    many = (_scenario(ZeroVector(), n=32, reps=800, sid="small"),
            _scenario(ZeroVector(), n=64, reps=800, sid="large"))
    reports = run_config(RunConfig(many, seed=3, output_path="r.csv", workers=2))
    assert [r.scenario_id for r in reports] == ["small", "large"]   # reports keep config order
    chunksize, order = calls[0]
    blocks = 800 // engine.B
    assert chunksize == -(-2 * blocks // (engine.C * 2)) and chunksize > 1
    assert order == [(64, b) for b in range(blocks)] + [(32, b) for b in range(blocks)]
    few = (_scenario(ZeroVector(), n=32, reps=40, sid="small"),
           _scenario(ZeroVector(), n=64, reps=40, sid="large"))
    run_config(RunConfig(few, seed=3, output_path="r.csv", workers=2))
    chunksize, order = calls[1]
    assert chunksize == 1
    assert order == [(64, 0), (64, 1), (64, 2), (32, 0), (32, 1), (32, 2)]


def test_a_failing_run_reports_the_same_first_failure_for_any_worker_count(monkeypatch):
    # both scenarios overflow the degree-2 series on every replication; the
    # larger n is dispatched first, so its replication 0 is the first failure
    monkeypatch.delenv("ABSMEAN_WORKERS", raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    failing = (_scenario(ConstantAt(1e200), n=32, reps=40, sid="small", K_override=1),
               _scenario(ConstantAt(1e200), n=64, reps=40, sid="large", K_override=1))
    messages = set()
    for workers in (1, 2, 3):
        with pytest.raises(RangeError) as exc_info:
            run_config(RunConfig(failing, seed=3, output_path="r.csv", workers=workers))
        messages.add(str(exc_info.value))
    assert len(messages) == 1
    assert messages.pop().startswith("scenario 'large', replication 0: ")


def test_block_streams_pin_the_draws(monkeypatch):
    # replication j of block b takes the j-th theta draw and noise vector of
    # the block's streams, and the j-th seed of its estimator-lane draw
    recorded = []
    original = engine.run_replication

    def recording(*args):
        recorded.append(original(*args))
        return recorded[-1]

    monkeypatch.setattr(engine, "run_replication", recording)
    seed, index, n, R = 5, 2, 64, 37
    run_scenario(_scenario(AlternationAtoms(k=4, M=2.0), n=n, reps=R, variant="unbounded"),
                 seed=seed, scenario_index=index)
    assert len(recorded) == R
    prior = scale_prior(construct_prior_pair(4)[1], 2.0)
    atoms, weights = np.asarray(prior.positions), np.asarray(prior.weights)
    for b, j in ((1, 5), (2, 4)):   # a full block, and the last, partial one
        theta_rng = stream(seed, LANE_THETA, index, b)
        obs_rng = stream(seed, LANE_OBS, index, b)
        for _ in range(j + 1):
            counts = theta_rng.multinomial(n, weights / weights.sum())
            y = np.repeat(atoms, counts) + obs_rng.standard_normal(n)
        size = min(engine.B, R - engine.B * b)
        est_seed = int(stream(seed, LANE_EST, index, b).integers(0, 1 << 63, size=size)[j])
        # the truth sum_j c_j |t_j| / n, from the counts in atom order
        truth = sum(c * abs(t) for t, c in zip(prior.positions, counts.tolist())) / n
        expected = (estimate_unbounded(y, est_seed), truth)
        assert recorded[engine.B * b + j] == expected


@pytest.mark.parametrize("family, est", [
    (ZeroVector(), {"variant": "bounded"}),
    (ConstantAt(0.6), {"variant": "bounded"}),
    (AlternationAtoms(k=4, M=1.0), {"variant": "growing"}),
    (TwoSpike(8, 3.0), {"variant": "sparse", "k_n": 8}),
], ids=["zero", "constant", "alternation", "two_spike"])
def test_block_buffer_keeps_every_replication_bit_for_bit(family, est):
    # a block draws each y into one reused buffer; across a full block at
    # n > 2^14 the replications are those of fresh arrays, to the bit
    n = 2**14 + 9
    s = _scenario(family, n=n, reps=engine.B, **est)
    seeds = stream(7, LANE_EST, 0, 0).integers(0, 1 << 63, size=engine.B).tolist()

    def block(buffer):
        theta_rng, obs_rng = stream(7, LANE_THETA, 0, 0), stream(7, LANE_OBS, 0, 0)
        rows = [engine.run_replication(s, theta_rng, obs_rng, seed, buffer()) for seed in seeds]
        return [(estimate.hex(), truth.hex()) for estimate, truth in rows]

    shared = np.empty(n)
    assert block(lambda: shared) == block(lambda: np.empty(n))


def test_run_config_env_override(tmp_path, monkeypatch):
    cfg = RunConfig(
        scenarios=(_scenario(ZeroVector(), n=32, reps=20, sid="z"),),
        seed=5,
        output_path=str(tmp_path / "r.csv"),
    )
    base = run_config(cfg)
    monkeypatch.setenv("ABSMEAN_WORKERS", "3")
    assert run_config(cfg) == base
    monkeypatch.setenv("ABSMEAN_WORKERS", "two")
    with pytest.raises(DomainError):
        run_config(cfg)
    monkeypatch.setenv("ABSMEAN_WORKERS", "0")
    with pytest.raises(DomainError):
        run_config(cfg)


def test_seed_changes_results():
    s = _scenario(ZeroVector(), n=32, reps=20)
    assert run_scenario(s, seed=1) != run_scenario(s, seed=2)


# ---------------------------------------------------------------------------
# rendering

def test_csv_shape_and_round_trip(tmp_path):
    s = _scenario(ZeroVector(), n=32, reps=20)
    rep = run_scenario(s, seed=9)
    text = render_csv([rep])
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert len(cells) == len(CSV_HEADER.split(","))
    assert cells[0] == "s" and cells[1] == "32" and cells[2] == "bounded"
    # %.17g survives a parse round trip bit for bit
    assert float(cells[6]) == rep.bias
    assert float(cells[8]) == rep.mse
    path = tmp_path / "out.csv"
    path.write_text("stale report")
    write_reports([rep], str(path), "csv")
    assert path.read_text(encoding="utf-8") == text
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]   # the temp file was renamed


def test_a_failed_write_removes_its_temp_file(tmp_path, monkeypatch):
    rep = run_scenario(_scenario(ZeroVector(), n=32, reps=4), seed=9)
    path = tmp_path / "out.csv"
    path.write_text("stale report")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        write_reports([rep], str(path), "csv")
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert path.read_text() == "stale report"


def test_json_rendering_carries_metadata(tmp_path):
    import absmean

    s = _scenario(ZeroVector(), n=32, reps=20)
    rep = run_scenario(s, seed=9)
    doc = json.loads(render_json([rep]))
    assert doc["metadata"] == {
        "rng": "philox4x64",
        "normal_sampling": "ziggurat",
        "package_version": absmean.__version__,
        "numpy_version": np.__version__,
        "replication_block": 16,
    }
    assert doc["reports"][0]["scenario_id"] == "s"
    assert doc["reports"][0]["bias"] == rep.bias
    path = tmp_path / "out.json"
    write_reports([rep], str(path), "json")
    assert json.loads(path.read_text(encoding="utf-8")) == doc


# ---------------------------------------------------------------------------
# moment-matched priors versus low-degree estimators

def test_low_degree_estimator_is_fooled_by_matched_pair():
    # degree-2 series, priors matching moments to order 2: the estimator's
    # expectation is identical under both, though the target differs by 0.25
    n, R, K = 256, 200, 1
    nu0, nu1, delta = construct_prior_pair(2)
    scaled = _scaled(K, 1.0)
    b0, v0, _ = exact_series_risk(nu0.positions, nu0.weights, scaled, n)
    b1, v1, _ = exact_series_risk(nu1.positions, nu1.weights, scaled, n)
    m0, m1 = nu0.mean_abs(), nu1.mean_abs()
    assert abs((b0 + m0) - (b1 + m1)) < 1e-14    # same mean estimate, exactly
    assert math.isclose(m1 - m0, 2 * delta, rel_tol=1e-12)

    rep0 = run_scenario(
        _scenario(AlternationAtoms(k=2, M=1.0, prior="nu0"), n=n, reps=R, K_override=K, sid="p0"),
        seed=17,
    )
    rep1 = run_scenario(
        _scenario(AlternationAtoms(k=2, M=1.0, prior="nu1"), n=n, reps=R, K_override=K, sid="p1"),
        seed=17,
    )
    tol = 5.0 * math.sqrt((v0 + v1) / R)
    assert abs((rep1.bias - rep0.bias) + (m1 - m0)) < tol
    assert abs(rep1.bias - b1) < 5.0 * math.sqrt(v1 / R)
    assert abs(rep0.bias - b0) < 5.0 * math.sqrt(v0 / R)


def test_higher_degree_estimator_separates_matched_pair():
    # degree 4 > matched order 2: expectations differ by roughly the gap
    n, R, K = 256, 300, 2
    nu0, nu1, _ = construct_prior_pair(2)
    scaled = _scaled(K, 1.0)
    b0, v0, _ = exact_series_risk(nu0.positions, nu0.weights, scaled, n)
    b1, v1, _ = exact_series_risk(nu1.positions, nu1.weights, scaled, n)
    diff = (b1 + nu1.mean_abs()) - (b0 + nu0.mean_abs())
    from absmean.polyapprox import remez_best_approx

    width = 2.0 * remez_best_approx(K).delta
    assert 0.25 - width <= diff <= 0.25 + width
    rep1 = run_scenario(
        _scenario(AlternationAtoms(k=2, M=1.0, prior="nu1"), n=n, reps=R, K_override=K, sid="q1"),
        seed=23,
    )
    assert abs(rep1.bias - b1) < 5.0 * math.sqrt(v1 / R)


# ---------------------------------------------------------------------------
# compliance and error context

def test_bound_compliance_report():
    good = RiskReport(
        scenario_id="g", n=100, variant="bounded", K=1, M=1.0, replications=10,
        estimate_mean=0.0, bias=0.05, variance=0.001, mse=0.0035,
        mc_stderr=0.001, bias_bound=0.125, var_bound=0.01,
    )
    bad = RiskReport(
        scenario_id="b", n=100, variant="bounded", K=1, M=1.0, replications=10,
        estimate_mean=0.0, bias=0.5, variance=0.5, mse=0.75,
        mc_stderr=0.001, bias_bound=0.125, var_bound=0.01,
    )
    rows = bound_compliance_report([good, bad], slack=2.0)
    assert rows[0].ok and rows[0].bias_ok and rows[0].var_ok
    assert not rows[1].ok and not rows[1].bias_ok and not rows[1].var_ok
    assert math.isclose(rows[1].bias_ratio, 4.0, rel_tol=1e-12)
    assert math.isclose(rows[1].var_ratio, 50.0, rel_tol=1e-12)
    with pytest.raises(DomainError):
        bound_compliance_report([])
    with pytest.raises(DomainError):
        bound_compliance_report([good], slack=0.0)


def test_replication_errors_carry_scenario_context():
    # k_n above the data length is arithmetic: the scenario is refused when it is built
    with pytest.raises(DomainError, match=r"^scenario 'broken-sparse': k_n must be an integer <= 64, got 70$"):
        Scenario(
            id="broken-sparse",
            family=ZeroVector(),
            n=64,
            replications=5,
            estimator=EstimatorSpec(variant="sparse", k_n=70),
        )
    # a series that overflows on the data is only detectable once data flows
    s = Scenario(
        id="overflowing",
        family=ConstantAt(1e200),
        n=64,
        replications=5,
        estimator=EstimatorSpec(variant="bounded", M=1.0, K_override=1),
    )
    with pytest.raises(RangeError, match=r"^scenario 'overflowing', replication 0: the degree-2 series overflows"):
        run_scenario(s, seed=1)
