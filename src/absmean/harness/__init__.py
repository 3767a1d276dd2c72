"""Monte Carlo risk harness: scenarios, engine, CLI, self-tests."""

from ..estimators import resolve_parameters
from .engine import (
    CSV_HEADER,
    ComplianceRow,
    RiskReport,
    analytic_bounds,
    bound_compliance_report,
    render_csv,
    render_json,
    run_config,
    run_replication,
    run_scenario,
    write_reports,
)
from .scenarios import (
    AlternationAtoms,
    ConstantAt,
    CustomVector,
    RunConfig,
    Scenario,
    TwoSpike,
    ZeroVector,
    draw_theta,
    load_config,
    parse_config,
)
from .selftest import check_mixture_variance, check_truncation_variance, run_selftest

__all__ = [
    "AlternationAtoms",
    "ComplianceRow",
    "ConstantAt",
    "CSV_HEADER",
    "CustomVector",
    "RiskReport",
    "RunConfig",
    "Scenario",
    "TwoSpike",
    "ZeroVector",
    "analytic_bounds",
    "bound_compliance_report",
    "check_mixture_variance",
    "check_truncation_variance",
    "draw_theta",
    "load_config",
    "parse_config",
    "render_csv",
    "render_json",
    "resolve_parameters",
    "run_config",
    "run_replication",
    "run_scenario",
    "run_selftest",
    "write_reports",
]
