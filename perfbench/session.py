"""One benchmark session: a fresh interpreter that sets a workload up and runs it.

    python3 perfbench/session.py --workload mc-large-n --seed 1 --passes 3 [--workers N]
                                 [--trace --spans FILE]

Set-up is the import of `absmean` plus what a user does before the first
call: `parse_config` for the Monte Carlo workloads (alternation families
build their least-favourable prior there), the shuffled call list for the
lower-bound sweep.  Then the workload's job runs `--passes` times.  The
first pass meets cold library caches, as a command-line user does; later
passes are warm.  Outputs are checked after all passes, outside the timed
region.  The session prints one JSON line for `run.py`.

Times on the sweep and on mc-large-n are normalised to a reference speed
(see REFERENCES); mc-small-n is timed by the wall clock.

With `--trace` the session puts spans around the public names the library
looks up (see WRAPS) and reports per-layer self times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import astuple

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))   # the exact-risk oracle, read only

import absmean  # noqa: E402
from absmean import harness  # noqa: E402
from oracles import exact_series_risk  # noqa: E402
from spans import ROOT_SPAN, Tracer  # noqa: E402

NPROC = os.cpu_count() or 1

# Monte Carlo suites: (n, replications per scenario).  One pass takes two
# to three seconds on a 2-core machine.
MC_SIZES = {
    "mc-large-n": ((10**6, 4),),
    "mc-small-n": ((64, 800), (10**4, 160)),
}
MC_WORKERS = {"mc-large-n": 1, "mc-small-n": NPROC}
# The bounded variant's bias bound is attained exactly on the zero and
# constant families, so at R replications bound_compliance_report passes only
# if the slack exceeds 1 + 5 sd / (sqrt(R) bias_bound).  With the exact
# per-replication sd that is 1.8 on mc-small-n (constant family, n = 1e4) and
# 13.7 on mc-large-n (constant family, n = 1e6, R = 4); these slacks cover it.
MC_SLACK = {"mc-large-n": 15.0, "mc-small-n": 2.0}
ESTIMATORS = {
    "bounded": {"variant": "bounded", "M": 1.0},
    "growing": {"variant": "growing"},
    "unbounded": {"variant": "unbounded"},
    "sparse": {"variant": "sparse", "kn": 8},
}

# Lower-bound sweep grid: every even k, each at three n and three M.
SWEEP_K = range(2, 81, 2)
SWEEP_N = (10**2, 10**6, 10**12)
SWEEP_M = (0.5, 1.0, 2.0)

# The machine's speed swings by up to 2x for seconds to minutes at a time,
# and not by one factor for all code.  A fixed reference computation of the
# same kind as a workload's work slows by the same factor to within a few per
# cent, so a workload that has one divides its times by the speed factor:
# measured reference time over the nominal time (about the reference's time
# in the machine's fast state).  The sweep times one reference after every
# call and normalises each run of SWEEP_CHUNK calls by their mean; a
# mc-large-n pass, seconds long, is bracketed by MC_REF_REPEATS references on
# each side and normalised by their median, which a short stall in one
# reference does not move.  mc-small-n spends its time in two pool workers,
# which no reference in this process tracks, so it stays on the wall clock.
SWEEP_CHUNK = 20
MC_REF_REPEATS = 5
_REF_W = np.linspace(0.0, 1.0, 12)
_REF_POS = np.linspace(-3.0, 3.0, 12)
_REF_RNG = np.random.default_rng(0)
_REF_BUF = np.empty(1 << 20)   # allocated once, so the heap the library leaves cannot move it

# (module, attribute, span name): the names callers look up at run time.
WRAPS = (
    ("absmean.harness", "parse_config", "scenarios.parse_config"),
    ("absmean.harness", "run_config", "engine.run_config"),
    ("absmean", "lower_bound_pipeline", "lowerbound.lower_bound_pipeline"),
    ("absmean.harness.engine", "run_scenario", "engine.run_scenario"),
    ("absmean.harness.engine", "run_replication", "engine.run_replication"),
    ("absmean.harness.engine", "analytic_bounds", "engine.analytic_bounds"),
    ("absmean.harness.engine", "stream", "rng.stream"),
    ("absmean.harness.engine", "derive_seed", "rng.derive_seed"),
    ("absmean.harness.engine", "draw_theta", "scenarios.draw_theta"),
    ("absmean.harness.engine", "run_estimator", "estimators.run_estimator"),
    ("absmean.rng", "stream", "rng.stream"),
    ("absmean.estimators", "estimate_bounded", "estimators.estimate_bounded"),
    ("absmean.estimators", "estimate_growing", "estimators.estimate_growing"),
    ("absmean.estimators", "estimate_unbounded", "estimators.estimate_unbounded"),
    ("absmean.estimators", "estimate_sparse", "estimators.estimate_sparse"),
    ("absmean.estimators", "split_samples", "estimators.split_samples"),
    ("absmean.estimators", "stream", "rng.stream"),
    ("absmean.estimators", "remez_best_approx", "polyapprox.remez_best_approx"),
    ("absmean.harness.scenarios", "construct_prior_pair", "lowerbound.construct_prior_pair"),
    ("absmean.lowerbound", "construct_prior_pair", "lowerbound.construct_prior_pair"),
    ("absmean.lowerbound", "remez_best_approx", "polyapprox.remez_best_approx"),
    ("absmean.lowerbound", "chi_square_mixture_1d", "lowerbound.chi_square_mixture_1d"),
)


# ---------------------------------------------------------------------------
# workload inputs

def mc_config_text(workload: str, seed: int, workers: int) -> str:
    """The canonical suite: each family paired with the estimators whose promise it meets."""
    scenarios = []
    for n, replications in MC_SIZES[workload]:
        pairs = (
            ("zero", {"kind": "zero"}, ("bounded", "growing", "unbounded")),
            ("alternation", {"kind": "alternation", "k": absmean.select_kn_bounded(n), "M": 1.0},
             ("bounded", "growing", "unbounded")),
            ("constant", {"kind": "constant", "value": 1.0}, ("bounded",)),
            ("two_spike", {"kind": "two_spike", "count": 8, "value": 3.0}, ("sparse", "unbounded")),
        )
        for family_name, family, variants in pairs:
            for variant in variants:
                scenarios.append({
                    "id": f"{family_name}-{variant}-n{n}",
                    "family": family,
                    "n": n,
                    "replications": replications,
                    "estimator": ESTIMATORS[variant],
                })
    doc = {"scenarios": scenarios, "seed": seed, "output_path": "unused.csv", "workers": workers,
           "compliance_slack": MC_SLACK[workload]}
    return json.dumps(doc)


def sweep_calls(seed: int) -> list[tuple[int, int, float]]:
    calls = [(k, n, M) for k in SWEEP_K for n in SWEEP_N for M in SWEEP_M]
    random.Random(seed).shuffle(calls)
    return calls


# ---------------------------------------------------------------------------
# correctness gates

def _iid_atoms(family):
    """Atoms and weights of the coordinate law, or None for non-iid families."""
    if isinstance(family, harness.ZeroVector):
        return (0.0,), (1.0,)
    if isinstance(family, harness.ConstantAt):
        return (float(family.value),), (1.0,)
    if isinstance(family, harness.AlternationAtoms):
        nu0, nu1, _ = absmean.construct_prior_pair(family.k)
        prior = absmean.scale_prior(nu1 if family.prior == "nu1" else nu0, family.M)
        return prior.positions, prior.weights
    return None


def exact_risk(scenario) -> tuple[int, float, float, float]:
    """(K, bias, error variance, mse) of a bounded or growing scenario, from the
    estimator's public cutoff rules and the rational-arithmetic oracle."""
    spec, n = scenario.estimator, scenario.n
    if spec.variant == "bounded":
        K = spec.K_override or absmean.select_K_star(n)
        M = float(spec.M)
    else:
        K = spec.K_override or absmean.select_K_growing(n)
        M = absmean.growing_radius(n, spec.c)
    g = absmean.approx_coefficients(K, spec.resolved_basis)
    scaled = [gk * M ** (1.0 - 2.0 * k) for k, gk in enumerate(g)]
    atoms, weights = _iid_atoms(scenario.family)
    return (K,) + exact_series_risk(atoms, weights, scaled, n)


def check_mc(cfg, reports, exact_cache: dict) -> list[str]:
    """One problem string per failing scenario.

    A report must be finite and meet `bound_compliance_report` at the config
    slack.  Bounded and growing scenarios on iid-atom families must also have
    |mse - exact mse| <= 5 se, where se is the larger of the engine's
    mc_stderr and the standard error sqrt((2 v^2 + 4 b^2 v) / R) that a normal
    error with the exact bias b and variance v gives.  The second term keeps a
    run whose few replications all fell near zero (tiny mc_stderr) from
    failing; it does not widen the check when mc_stderr is the larger one.
    """
    problems = []
    rows = harness.bound_compliance_report(reports, slack=cfg.compliance_slack)
    for s, r, row in zip(cfg.scenarios, reports, rows):
        issue = []
        numbers = [v for v in astuple(r) if isinstance(v, float)]
        if r.scenario_id != s.id:
            issue.append(f"report id {r.scenario_id!r}")
        if not all(math.isfinite(v) for v in numbers):
            issue.append("non-finite field")
        if not row.ok:
            issue.append(f"compliance bias x{row.bias_ratio:.3g} var x{row.var_ratio:.3g}")
        if s.estimator.variant in ("bounded", "growing") and _iid_atoms(s.family) is not None:
            if s.id not in exact_cache:
                exact_cache[s.id] = exact_risk(s)
            K, b, v, mse = exact_cache[s.id]
            se = max(r.mc_stderr, math.sqrt((2 * v * v + 4 * b * b * v) / r.replications))
            if r.K != K:
                issue.append(f"K {r.K} != {K}")
            if not abs(r.mse - mse) <= 5.0 * se:
                issue.append(f"mse {r.mse:.6g} vs exact {mse:.6g} (5 se = {5 * se:.3g})")
        if issue:
            problems.append(f"{s.id}: " + "; ".join(issue))
    return problems


LB_KEYS = ("k_n", "delta_k", "m_gap", "v0_sq", "I", "bound_value")


def check_lower_bound(record: dict, k: int, M: float) -> list[str]:
    """Finite fields, bound_value >= 0, k_n = k and m_gap = 2 M delta_k.

    I may be +inf: chi_square_product_n saturates once (1 + I_1^2)^n leaves
    the double range, and the bound is then exactly 0.
    """
    if sorted(record) != sorted(LB_KEYS):
        return [f"keys {sorted(record)}"]
    issue = []
    for key in LB_KEYS:
        value = record[key]
        if key == "I" and value == math.inf:
            if record["bound_value"] != 0.0:
                issue.append("I = inf with a nonzero bound")
        elif not math.isfinite(value):
            issue.append(f"{key} = {value}")
    if not record["bound_value"] >= 0.0:
        issue.append(f"bound_value {record['bound_value']}")
    if record["k_n"] != k:
        issue.append(f"k_n {record['k_n']} != {k}")
    gap = 2.0 * M * record["delta_k"]
    if not abs(record["m_gap"] - gap) <= 1e-9 * abs(gap):
        issue.append(f"m_gap {record['m_gap']!r} != 2 M delta_k {gap!r}")
    return issue


# ---------------------------------------------------------------------------
# passes

def _interp_reference() -> None:
    """A scalar loop over small numpy calls, like a quadrature integrand."""
    s = 0.0
    for i in range(400):
        s += float(np.dot(_REF_W, np.exp(-0.5 * (i * 0.01 - _REF_POS) ** 2)))


def _array_reference() -> None:
    """A Gaussian draw into 2^20 doubles and a pass over them, like one n = 1e6 replication."""
    _REF_RNG.standard_normal(out=_REF_BUF)
    float(np.abs(_REF_BUF, out=_REF_BUF).sum())


# workload: (reference, nominal ms).  The references live in the benchmark,
# so no library change can move them.
REFERENCES = {
    "lowerbound-sweep": (_interp_reference, 1.0),
    "mc-large-n": (_array_reference, 20.0),
}


def speed_factor(workload: str) -> float:
    """Measured over nominal time of the workload's reference; 1 if it has none."""
    if workload not in REFERENCES:
        return 1.0
    reference, nominal_ms = REFERENCES[workload]
    t0 = time.perf_counter()
    reference()
    return (time.perf_counter() - t0) * 1e3 / nominal_ms


def run_mc_pass(cfg, workload: str, reference: bool) -> dict:
    repeats = MC_REF_REPEATS if reference else 0
    factors = [speed_factor(workload) for _ in range(repeats)]
    t0 = time.perf_counter()
    try:
        reports = harness.run_config(cfg)
        error = None
    except Exception as e:   # a failed pass is counted, the session goes on
        reports, error = None, f"{type(e).__name__}: {e}"
    wall_s = time.perf_counter() - t0
    factors += [speed_factor(workload) for _ in range(repeats)]
    speed = statistics.median(factors) if factors else 1.0
    return {"wall_s": wall_s, "speed": speed, "reports": reports, "error": error}


def run_sweep_pass(calls, seen: set, reference: bool) -> dict:
    lower_bound_pipeline = absmean.lower_bound_pipeline   # looked up once per pass
    out = []
    for k, n, M in calls:
        t0 = time.perf_counter()
        try:
            record = lower_bound_pipeline(n, M, k_n=k)
        except Exception as e:   # counted as a failed call
            record = f"{type(e).__name__}: {e}"
        ms = (time.perf_counter() - t0) * 1e3
        speed = speed_factor("lowerbound-sweep") if reference else 1.0
        out.append((k, n, M, ms, speed, k not in seen, record))
        seen.add(k)
    return {"wall_s": sum(c[3] for c in out) / 1e3, "calls": out}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def summarize_mc(cfg, result: dict, first: bool, exact_cache: dict) -> dict:
    attempted = len(cfg.scenarios)
    if result["reports"] is None:
        problems, text = [result["error"]] * attempted, ""
    else:
        problems = check_mc(cfg, result["reports"], exact_cache)
        text = harness.render_csv(result["reports"])
    ops_s = result["wall_s"] / result["speed"]
    return {
        "wall_s": result["wall_s"],
        "ops_s": ops_s,
        "speed": result["speed"],
        "ops": sum(s.replications for s in cfg.scenarios),
        "cold_ms": [ops_s * 1e3] if first else [],
        "warm_ms": [] if first else [ops_s * 1e3],
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems[:5],
        "digest": digest(text),
    }


def summarize_sweep(result: dict) -> dict:
    problems, rows = [], []
    for k, n, M, _, _, _, record in result["calls"]:
        issue = [record] if isinstance(record, str) else check_lower_bound(record, k, M)
        if issue:
            problems.append(f"k={k} n={n} M={M}: " + "; ".join(issue))
        rows.append([k, n, M, record])
    rows.sort(key=lambda row: row[:3])
    cold_ms, warm_ms, speeds = [], [], []
    for i in range(0, len(result["calls"]), SWEEP_CHUNK):
        chunk = result["calls"][i:i + SWEEP_CHUNK]
        speed = statistics.fmean(c[4] for c in chunk)
        speeds.append(speed)
        for _, _, _, ms, _, cold, _ in chunk:
            (cold_ms if cold else warm_ms).append(ms / speed)
    return {
        "wall_s": result["wall_s"],
        "ops_s": (sum(cold_ms) + sum(warm_ms)) / 1e3,
        "speed": statistics.median(speeds),
        "ops": len(result["calls"]),
        "cold_ms": cold_ms,
        "warm_ms": warm_ms,
        "attempted": len(result["calls"]),
        "failed": len(problems),
        "problems": problems[:5],
        "digest": digest(json.dumps(rows)),
    }


# ---------------------------------------------------------------------------
# tracing summary

def layer_report(tracer: Tracer, cfg) -> dict:
    self_s, calls = tracer.self_times()
    root = tracer.spans[0]
    root_s = root[2] - root[1]
    report = {
        "root_s": root_s,
        "self_s": self_s,
        "calls": calls,
        "self_sum_error_s": abs(sum(self_s.values()) - root_s),
        "approx_coefficients": absmean.approx_coefficients.cache_info()._asdict(),
        "coords": 0,
        "recurrence_steps": 0,
        "expected_estimator_calls": 0,
    }
    if cfg is not None:
        for s in cfg.scenarios:
            K, _ = harness.resolve_parameters(s.estimator, s.n)
            report["coords"] += s.replications * s.n
            report["recurrence_steps"] += s.replications * s.n * 2 * K
            report["expected_estimator_calls"] += s.replications
    return report


# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("mc-large-n", "mc-small-n", "lowerbound-sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--workers", type=int, default=None, help="override the workload's worker count")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="write the trace spans to this file")
    args = ap.parse_args()
    mc = args.workload.startswith("mc-")

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        for module, attr, name in WRAPS:
            tracer.wrap(module, attr, name)

    cfg, seen, results = None, set(), []
    with tracer.span(ROOT_SPAN) if tracer is not None else nullcontext():
        if mc:
            workers = MC_WORKERS[args.workload] if args.workers is None else args.workers
            cfg = harness.parse_config(mc_config_text(args.workload, args.seed, workers))
        else:
            calls = sweep_calls(args.seed)
        ready = time.monotonic()
        for _ in range(args.passes):
            # a traced session reports shares of its own time, so it runs no reference
            reference = tracer is None
            results.append(run_mc_pass(cfg, args.workload, reference) if mc
                           else run_sweep_pass(calls, seen, reference))
    if tracer is not None:
        tracer.unwrap()

    exact_cache: dict = {}
    passes = [
        summarize_mc(cfg, r, i == 0, exact_cache) if mc else summarize_sweep(r)
        for i, r in enumerate(results)
    ]
    out = {
        "ready": ready,
        "passes": passes,
        "rss_self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rss_children_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"] = layer_report(tracer, cfg)
        if args.spans:
            os.makedirs(os.path.dirname(os.path.abspath(args.spans)), exist_ok=True)
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
