"""Monte Carlo risk engine.

Each (scenario, replication) cell gets its own counter-based random streams,
keyed by (seed, lane, scenario index, replication index), so the realized
numbers do not depend on scheduling.  Workers return per-replication results
tagged with their replication index; aggregation sorts by that index and
reduces with numpy's fixed-order pairwise summation.  Consequence: a run is
byte-identical for any worker count.

Per replication: theta is realized from the scenario family (random families
redraw it each time), y = theta + standard normal noise, the estimator runs
on y, and the error is estimate - mean(|theta|).  Aggregates are

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

import numpy as np

from .. import __version__
from ..errors import MAX_COUNT, AbsmeanError, DomainError, check_int, check_real
from ..estimators import EstimatorSpec, approx_coefficients, resolve_parameters, run_estimator
from ..polyapprox import EvenPolynomial, uniform_error
from ..rng import LANE_EST, LANE_OBS, LANE_THETA, derive_seed, stream
from .scenarios import RunConfig, Scenario, draw_theta

WORKERS_ENV_VAR = "ABSMEAN_WORKERS"

CSV_HEADER = "scenario_id,n,variant,K,M,replications,bias,variance,mse,mc_stderr,bias_bound,var_bound"

_METADATA = {
    "rng": "philox4x64",
    "normal_sampling": "ziggurat",
    "package_version": __version__,
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

    bounded   bias: M times the uniform error of the unit-interval series
              actually used; var: 2 e^{M^2} 2^{8K} K^{2K} / n.
    growing   bias: 2M/(pi(2K+1)); var: 4 M^2 2^{8K} / n.
    unbounded bias: sqrt(2)(2M/(pi(2K+1)) + 1), the 1 covering the
              |x|-branch excess E|N(mu,1)| - |mu| < 1; var: 2 (ln n)^5 / sqrt(n).
    sparse    same shapes scaled by n/k_n (the renormalized sum has k_n in
              the denominator but n noisy coordinates).
    """
    K, M = resolve_parameters(spec, n)
    if spec.variant == "bounded":
        poly = EvenPolynomial(approx_coefficients(K, spec.resolved_basis))
        bias_bound = M * uniform_error(poly)
        var_bound = 2.0 * math.exp(M * M) * 2.0 ** (8 * K) * float(K) ** (2 * K) / n
        return bias_bound, var_bound
    if spec.variant == "growing":
        bias_bound = 2.0 * M / (math.pi * (2 * K + 1))
        var_bound = 4.0 * M * M * 2.0 ** (8 * K) / n
        return bias_bound, var_bound
    series = 2.0 * M / (math.pi * (2 * K + 1))
    bias_bound = math.sqrt(2.0) * (series + 1.0)
    var_bound = 2.0 * math.log(n) ** 5 / math.sqrt(n)
    if spec.variant == "sparse":
        ratio = n / float(spec.k_n)
        bias_bound *= ratio
        var_bound *= ratio * ratio
    return bias_bound, var_bound


def run_replication(s: Scenario, seed: int, scenario_index: int, rep: int) -> tuple[float, float]:
    """One Monte Carlo cell: returns (estimate, true functional value)."""
    theta_rng = stream(seed, LANE_THETA, scenario_index, rep)
    theta = draw_theta(s.family, s.n, theta_rng)
    y = theta + stream(seed, LANE_OBS, scenario_index, rep).standard_normal(s.n)
    est_seed = derive_seed(seed, LANE_EST, scenario_index, rep)
    try:
        estimate = run_estimator(s.estimator, y, seed=est_seed)
    except AbsmeanError as e:
        e.args = (f"scenario {s.id!r}, replication {rep}: {e.args[0]}",) + e.args[1:]
        raise
    return estimate, float(np.mean(np.abs(theta)))


def _replication_block(args) -> list[tuple[int, float, float]]:
    s, seed, scenario_index, reps = args
    out = []
    for rep in reps:
        estimate, truth = run_replication(s, seed, scenario_index, rep)
        out.append((rep, estimate, truth))
    return out


def _partition(total: int, parts: int) -> list[range]:
    parts = max(1, min(parts, total))
    step = (total + parts - 1) // parts
    return [range(lo, min(lo + step, total)) for lo in range(0, total, step)]


def run_scenario(s: Scenario, seed: int, scenario_index: int = 0, workers: int = 1) -> RiskReport:
    """Run every replication of one scenario and aggregate deterministically.

    The pool has at most min(workers, R, os.cpu_count()) processes.
    """
    R = s.replications
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        rows = _replication_block((s, seed, scenario_index, range(R)))
    else:
        blocks = _partition(R, workers)
        rows = []
        with concurrent.futures.ProcessPoolExecutor(max_workers=len(blocks)) as pool:
            for block in pool.map(
                _replication_block, [(s, seed, scenario_index, b) for b in blocks]
            ):
                rows.extend(block)
    rows.sort(key=lambda t: t[0])   # replication order, independent of scheduling
    estimates = np.asarray([r[1] for r in rows])
    truths = np.asarray([r[2] for r in rows])
    errors = estimates - truths
    bias = float(np.mean(errors))
    mse = float(np.mean(errors ** 2))
    variance = max(mse - bias * bias, 0.0)
    mc_stderr = float(np.std(errors ** 2, ddof=1) / math.sqrt(R))
    K, M = resolve_parameters(s.estimator, s.n)
    bias_bound, var_bound = analytic_bounds(s.estimator, s.n)
    return RiskReport(
        scenario_id=s.id,
        n=s.n,
        variant=s.estimator.variant,
        K=K,
        M=M,
        replications=R,
        estimate_mean=float(np.mean(estimates)),
        bias=bias,
        variance=variance,
        mse=mse,
        mc_stderr=mc_stderr,
        bias_bound=bias_bound,
        var_bound=var_bound,
    )


def run_config(cfg: RunConfig) -> list[RiskReport]:
    """Run all scenarios; honors the worker-count environment override."""
    workers = cfg.workers
    env = os.environ.get(WORKERS_ENV_VAR)
    if env is not None:
        try:
            workers = int(env)
        except ValueError as e:
            raise DomainError(f"{WORKERS_ENV_VAR} must be an integer, got {env!r}") from e
        workers = check_int(WORKERS_ENV_VAR, workers, 1, MAX_COUNT)
    return [
        run_scenario(s, cfg.seed, scenario_index=i, workers=workers)
        for i, s in enumerate(cfg.scenarios)
    ]


# ---------------------------------------------------------------------------
# persistence

def _fmt(x: float) -> str:
    return "%.17g" % x


def render_csv(reports: list[RiskReport]) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(
            ",".join(
                [
                    r.scenario_id,
                    str(r.n),
                    r.variant,
                    str(r.K),
                    _fmt(r.M),
                    str(r.replications),
                    _fmt(r.bias),
                    _fmt(r.variance),
                    _fmt(r.mse),
                    _fmt(r.mc_stderr),
                    _fmt(r.bias_bound),
                    _fmt(r.var_bound),
                ]
            )
        )
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
