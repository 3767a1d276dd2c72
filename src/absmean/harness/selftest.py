"""Invariant self-tests runnable from the CLI.

Two variance facts used by the risk analysis are checked by exact
enumeration on random finite distributions, alongside quick closed-form
checks of the approximation, prior, and chi-square machinery and a
determinism check of the engine:

* mixture variance decomposition: for F = sum_j w_j F_j,
  Var_F(X) = sum_j w_j Var_j(X) + sum_j w_j (mean_j - mean_F)^2;
* monotone truncation: Var(min(X, C)) <= Var(X) for any constant C.
"""

from __future__ import annotations

import math

import numpy as np

from ..estimators import EstimatorSpec
from ..lowerbound import (
    chi_square_gaussian_mixtures,
    construct_prior_pair,
    random_discrete_model,
    verify_constrained_risk,
)
from ..polyapprox import remez_best_approx
from ..rng import stream
from .engine import render_csv, run_scenario
from .scenarios import Scenario, ZeroVector


def check_mixture_variance(trials: int) -> int:
    """Number of identity violations beyond 1e-12 over `trials` random mixtures.

    Each mixture has 2..4 components, each a discrete distribution on 2..6
    uniform atoms in [-3, 3]; its variance is computed directly and by the
    total-variance decomposition.
    """
    rng = stream(0, 0, 61, 0)
    bad = 0
    for _ in range(trials):
        m = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(m))
        atoms = [rng.uniform(-3.0, 3.0, size=int(rng.integers(2, 7))) for _ in range(m)]
        probs = [rng.dirichlet(np.ones(len(a))) for a in atoms]
        means = np.array([np.dot(p, a) for a, p in zip(atoms, probs)])
        seconds = np.array([np.dot(p, a ** 2) for a, p in zip(atoms, probs)])
        grand_mean = float(np.dot(weights, means))
        direct = float(np.dot(weights, seconds)) - grand_mean ** 2
        within = float(np.dot(weights, seconds - means ** 2))
        between = float(np.dot(weights, (means - grand_mean) ** 2))
        bad += abs(direct - (within + between)) > 1e-12
    return bad


def check_truncation_variance(trials: int) -> int:
    """Number of Var(min(X,C)) > Var(X) violations over `trials` random draws.

    X is discrete on 2..8 uniform atoms in [-5, 5] and C uniform in [-6, 6].
    """
    rng = stream(0, 0, 71, 0)
    bad = 0
    for _ in range(trials):
        k = int(rng.integers(2, 9))
        atoms = rng.uniform(-5.0, 5.0, size=k)
        probs = rng.dirichlet(np.ones(k))
        capped = np.minimum(atoms, float(rng.uniform(-6.0, 6.0)))
        var_x = float(np.dot(probs, atoms ** 2) - np.dot(probs, atoms) ** 2)
        var_t = float(np.dot(probs, capped ** 2) - np.dot(probs, capped) ** 2)
        bad += var_t > var_x + 1e-12
    return bad


def run_selftest() -> bool:
    """Quick invariant suite; prints one line per check, returns overall pass."""
    ok = True

    def report(name: str, passed: bool):
        nonlocal ok
        ok = ok and passed
        print(f"{'ok  ' if passed else 'FAIL'} {name}")

    sol = remez_best_approx(1)
    report("degree-2 minimax error 1/8", abs(sol.delta - 0.125) < 1e-9)
    alt = sorted(set(round(abs(x), 9) for x in sol.alternation_points))
    report("degree-2 alternation set {0, 1/2, 1}", np.allclose(alt, [0.0, 0.5, 1.0]))

    nu0, nu1, delta = construct_prior_pair(2)
    w0 = dict(zip(nu0.positions, nu0.weights))
    report(
        "order-2 prior pair closed form",
        abs(delta - 0.125) < 1e-9
        and abs(w0.get(0.0, 0) - 0.75) < 1e-9
        and abs(w0.get(1.0, 0) - 0.125) < 1e-9
        and abs(dict(zip(nu1.positions, nu1.weights)).get(0.5, 0) - 0.5) < 1e-9,
    )
    worst = max(abs(nu1.moment(j) - nu0.moment(j)) for j in range(3))
    report("order-2 prior moments match", worst < 1e-10)

    i2 = chi_square_gaussian_mixtures((0.0,), (1.0,), (1.0,), (1.0,))
    report("chi-square point-mass identity", abs(i2 - math.expm1(1.0)) < 1e-8)

    rng = stream(0, 0, 81, 0)
    cri_bad = 0
    for _ in range(100):
        model, mu0, mu1 = random_discrete_model(rng)
        T = np.asarray(model.T_values)
        P = np.asarray(model.obs_probs)
        rule = tuple(rng.uniform(-1.0, 1.0, size=P.shape[1]))
        risk0 = float(
            np.dot(mu0, np.sum(P * (np.asarray(rule)[None, :] - T[:, None]) ** 2, axis=1))
        )
        rec = verify_constrained_risk(model, mu0, mu1, rule, math.sqrt(risk0) * 1.000001)
        if not rec.all_ok:
            cri_bad += 1
    report("constrained risk inequality, 100 random models", cri_bad == 0)

    report("mixture variance identity, 200 cases", check_mixture_variance(200) == 0)
    report("truncation variance monotone, 200 cases", check_truncation_variance(200) == 0)

    scenario = Scenario(
        id="selftest-determinism",
        family=ZeroVector(),
        n=64,
        replications=40,
        estimator=EstimatorSpec(variant="bounded", M=1.0, K_override=1),
    )
    a = render_csv([run_scenario(scenario, seed=7, scenario_index=0, workers=1)])
    b = render_csv([run_scenario(scenario, seed=7, scenario_index=0, workers=3)])
    report("engine determinism across worker counts", a == b)

    return ok
