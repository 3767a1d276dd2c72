"""Monte Carlo risk engine.

The unit of work is a block of B consecutive replications of one scenario.
Each block owns one counter-based random stream per lane, keyed by (seed,
lane, scenario index, block index): replication j of the block takes the
j-th theta draw from the theta lane and the j-th noise vector from the
observation lane, and the block's estimator seeds are one vector draw from
the estimator lane.  B is a constant, not the worker count, so the realized
numbers do not depend on scheduling.  A run opens one process pool for all
its (scenario, block) tasks; aggregation takes each scenario's blocks in
order and reduces with numpy's fixed-order pairwise summation.
Consequence: a run is byte-identical for any worker count.

Dispatch order is scenarios by decreasing n (ties in config order), each
scenario's blocks contiguous and in block order.  The pool receives that
list in about C chunks per worker, so the per-task costs (pickling the
scenario, a round trip to a worker) are paid per chunk, and the costly
large-n blocks start first while cheap small-n chunks fill the tail.  The
serial path runs the same list, so a failing run reports the first failure
in dispatch order, whatever the worker count.

Per replication: standard normal noise is drawn into y, the scenario family
adds theta to y in place (random families redraw it each time) and returns
the truth mean(|theta|), and the error is the estimate on y minus the truth.
y lives in the block's one n-length buffer and the estimator keeps no float
array of length n: a replication's only n-length array is the estimator's
boolean finiteness mask.  Aggregates are

    bias      mean of errors
    mse       mean of squared errors
    variance  mse - bias^2  (population variance of the errors)
    mc_stderr sample stderr of the squared errors (uncertainty of mse)

plus analytic per-variant bias/variance bounds for the compliance report.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import os
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .. import __version__
from ..errors import MAX_COUNT, AbsmeanError, DomainError, RangeError, check_int, check_real
from ..estimators import EstimatorSpec, resolve_parameters, run_estimator
from ..polyapprox import build_G_K, coefficient_error, remez_best_approx
# derive_seed and draw_theta are unused here but stay importable: perfbench/session.py traces this module's names
from ..rng import LANE_EST, LANE_OBS, LANE_THETA, derive_seed, stream  # noqa: F401
from .scenarios import RunConfig, Scenario, draw_theta  # noqa: F401

WORKERS_ENV_VAR = "ABSMEAN_WORKERS"

B = 16   # replications per block; the block index keys the streams
C = 16   # pool chunks per worker: more pay more per-task overhead, fewer leave one worker a long tail

CSV_HEADER = "scenario_id,n,variant,K,M,replications,bias,variance,mse,mc_stderr,bias_bound,var_bound"

_METADATA = {
    "rng": "philox4x64",
    "normal_sampling": "ziggurat",
    "package_version": __version__,
    "numpy_version": np.__version__,   # Philox draws are bit-stable within one numpy version
    "replication_block": B,
}


@dataclass(frozen=True)
class RiskReport:
    scenario_id: str
    n: int
    variant: str
    K: int
    M: float
    replications: int
    estimate_mean: float
    bias: float
    variance: float
    mse: float
    mc_stderr: float
    bias_bound: float
    var_bound: float


def analytic_bounds(spec: EstimatorSpec, n: int) -> tuple[float, float]:
    """Per-variant (bias_bound, var_bound) attached to every report.

    Each bias bound is built on M times the sup error of the unit-interval
    series the estimator runs with (`_series_error`).
    bounded   bias: that term; var: 2 e^{M^2} 2^{8K} K^{2K} / n.
    growing   bias: that term; var: 4 M^2 2^{8K} / n.
    unbounded bias: sqrt(2)(that term + 1), the 1 covering the
              |x|-branch excess E|N(mu,1)| - |mu| < 1; var: 2 (ln n)^5 / sqrt(n).
    sparse    same shapes scaled by n/k_n (the renormalized sum has k_n in
              the denominator but n noisy coordinates).
    A bound past the double range raises RangeError (e^{M^2} alone passes
    it from M = 26.64).
    """
    K, M = resolve_parameters(spec, n)
    try:
        bounds = _variant_bounds(spec, n, K, M)
    except OverflowError:   # math.exp(M * M) past the double range
        bounds = (math.inf, math.inf)
    if not all(map(math.isfinite, bounds)):
        raise RangeError(
            f"the {spec.variant} variant's analytic bounds pass the double range "
            f"at K = {K}, M = {M:g}, n = {n}"
        )
    return bounds


def _variant_bounds(spec: EstimatorSpec, n: int, K: int, M: float) -> tuple[float, float]:
    series = M * _series_error(K, spec.resolved_basis)
    if spec.variant == "bounded":
        return series, 2.0 * math.exp(M * M) * 2.0 ** (8 * K) * float(K) ** (2 * K) / n
    if spec.variant == "growing":
        return series, 4.0 * M * M * 2.0 ** (8 * K) / n
    bias_bound = math.sqrt(2.0) * (series + 1.0)
    var_bound = 2.0 * math.log(n) ** 5 / math.sqrt(n)
    if spec.variant == "sparse":
        ratio = n / float(spec.k_n)
        bias_bound *= ratio
        var_bound *= ratio * ratio
    return bias_bound, var_bound


@lru_cache(maxsize=None)
def _series_error(K: int, basis: str) -> float:
    """Bound on sup | |x| - p(x) | on [-1, 1] for p with the estimators' coefficients
    approx_coefficients(K, basis): the Chebyshev form's error (Remez delta, or the
    truncation's 2/(pi(2K+1))) plus their rounding, which dominates from K ~ 20 on."""
    if basis == "best":
        sol = remez_best_approx(K)
        return sol.delta + coefficient_error(sol.poly)
    return 2.0 / (math.pi * (2 * K + 1)) + coefficient_error(build_G_K(K))


def run_replication(s: Scenario, theta_rng, obs_rng, est_seed: int, out: np.ndarray) -> tuple[float, float]:
    """One Monte Carlo cell: returns (estimate, true functional value).

    Takes the next noise vector and theta draw from the block's streams: y
    is the noise drawn into `out`, the block's float64 buffer of length n,
    and the scenario family adds its theta to y in place and returns the
    truth (`FAMILIES` in scenarios.py).
    """
    y = obs_rng.standard_normal(s.n, out=out)
    truth = s.family.add_to(y, theta_rng)
    return run_estimator(s.estimator, y, seed=est_seed), truth


def _run_block(task) -> list[tuple[float, float]]:
    """Replications b*B up to (b+1)*B of scenario i, in order, each drawing
    its y into one buffer of the block."""
    s, seed, i, b = task
    reps = range(b * B, min(b * B + B, s.replications))
    theta_rng = stream(seed, LANE_THETA, i, b)
    obs_rng = stream(seed, LANE_OBS, i, b)
    est_seeds = stream(seed, LANE_EST, i, b).integers(0, 1 << 63, size=len(reps)).tolist()
    y = np.empty(s.n)
    out = []
    for rep, est_seed in zip(reps, est_seeds):
        try:
            out.append(run_replication(s, theta_rng, obs_rng, est_seed, y))
        except AbsmeanError as e:
            e.args = (f"scenario {s.id!r}, replication {rep}: {e.args[0]}",) + e.args[1:]
            raise
    return out


def _report(s: Scenario, rows: list[tuple[float, float]], bias_bound: float, var_bound: float) -> RiskReport:
    R = s.replications
    estimates, truths = np.array(rows).T
    errors = estimates - truths
    bias = float(np.mean(errors))
    mse = float(np.mean(errors ** 2))
    variance = max(mse - bias * bias, 0.0)
    mc_stderr = float(np.std(errors ** 2, ddof=1) / math.sqrt(R))
    K, M = resolve_parameters(s.estimator, s.n)
    return RiskReport(
        scenario_id=s.id, n=s.n, variant=s.estimator.variant, K=K, M=M, replications=R,
        estimate_mean=float(np.mean(estimates)), bias=bias, variance=variance, mse=mse,
        mc_stderr=mc_stderr, bias_bound=bias_bound, var_bound=var_bound,
    )


def _run(indexed: list[tuple[int, Scenario]], seed: int, workers: int) -> list[RiskReport]:
    """Run every block of the (scenario index, scenario) pairs, then aggregate.

    Each scenario's analytic bounds are computed first, so a bound past the
    double range fails the run before any replication.

    Tasks go out largest n first (a stable sort, so equal n keep their
    order), each scenario's blocks together and in order.  One pool of at
    most min(workers, blocks, os.cpu_count()) processes takes them in
    chunks of ceil(tasks / (C * workers)); with one process the same list
    runs here.  Either way the first failing task in that order raises.
    """
    bounds = {}
    for i, s in indexed:
        try:
            bounds[i] = analytic_bounds(s.estimator, s.n)
        except RangeError as e:
            e.args = (f"scenario {s.id!r}: {e.args[0]}",) + e.args[1:]
            raise
        except DomainError:   # a spec that cannot run at n: replication 0 raises the same error
            pass
    order = sorted(indexed, key=lambda pair: pair[1].n, reverse=True)
    tasks = [(s, seed, i, b) for i, s in order for b in range(-(-s.replications // B))]
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        blocks = list(map(_run_block, tasks))
    else:
        chunksize = -(-len(tasks) // (C * workers))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_run_block, tasks, chunksize=chunksize))
    rows = {i: [] for i, _ in indexed}
    for (_, _, i, _), block in zip(tasks, blocks):
        rows[i].extend(block)   # pool.map keeps task order, so replication order
    return [_report(s, rows[i], *bounds[i]) for i, s in indexed]


def run_scenario(s: Scenario, seed: int, scenario_index: int = 0, workers: int = 1) -> RiskReport:
    """Run every replication of one scenario and aggregate deterministically."""
    return _run([(scenario_index, s)], seed, workers)[0]


def run_config(cfg: RunConfig) -> list[RiskReport]:
    """Run all scenarios on one pool; honors the worker-count environment override."""
    workers = cfg.workers
    env = os.environ.get(WORKERS_ENV_VAR)
    if env is not None:
        try:
            workers = int(env)
        except ValueError as e:
            raise DomainError(f"{WORKERS_ENV_VAR} must be an integer, got {env!r}") from e
        workers = check_int(WORKERS_ENV_VAR, workers, 1, MAX_COUNT)
    return _run(list(enumerate(cfg.scenarios)), cfg.seed, workers)


# ---------------------------------------------------------------------------
# persistence

def _fmt(x: float) -> str:
    return "%.17g" % x


def render_csv(reports: list[RiskReport]) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        head = [r.scenario_id, str(r.n), r.variant, str(r.K), _fmt(r.M), str(r.replications)]
        stats = (r.bias, r.variance, r.mse, r.mc_stderr, r.bias_bound, r.var_bound)
        lines.append(",".join(head + [_fmt(x) for x in stats]))
    return "\n".join(lines) + "\n"


def render_json(reports: list[RiskReport]) -> str:
    doc = {"metadata": dict(_METADATA), "reports": [asdict(r) for r in reports]}
    return json.dumps(doc, indent=2) + "\n"


def check_output_path(path: str) -> None:
    """Raise DomainError unless write_reports can create or replace `path`.

    Run before the scenarios, so a bad path fails in seconds, not after the run.
    """
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise DomainError(f"output_path {path!r} is a directory")
    if not os.path.isdir(parent):
        raise DomainError(f"output directory {parent!r} does not exist")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise DomainError(f"output directory {parent!r} is not writable")


def write_reports(reports: list[RiskReport], path: str, format: str) -> None:
    """Write the reports to `path` atomically: a temp file in the same
    directory, then os.replace, so a failed write leaves no partial report."""
    text = render_csv(reports) if format == "csv" else render_json(reports)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


# ---------------------------------------------------------------------------
# compliance

@dataclass(frozen=True)
class ComplianceRow:
    scenario_id: str
    bias_ok: bool
    var_ok: bool
    bias_ratio: float
    var_ratio: float

    @property
    def ok(self) -> bool:
        return self.bias_ok and self.var_ok


def bound_compliance_report(reports: list[RiskReport], slack: float = 2.0) -> list[ComplianceRow]:
    """Check measured |bias| and variance against slack times their bounds."""
    if len(reports) == 0:
        raise DomainError("compliance report needs at least one risk report")
    slack = check_real("slack", slack, above=0.0)
    out = []
    for r in reports:
        bias_ratio = abs(r.bias) / r.bias_bound if r.bias_bound > 0 else math.inf
        var_ratio = r.variance / r.var_bound if r.var_bound > 0 else math.inf
        out.append(
            ComplianceRow(
                scenario_id=r.scenario_id,
                bias_ok=bool(abs(r.bias) <= slack * r.bias_bound),
                var_ok=bool(r.variance <= slack * r.var_bound),
                bias_ratio=bias_ratio,
                var_ratio=var_ratio,
            )
        )
    return out
