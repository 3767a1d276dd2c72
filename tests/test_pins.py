"""Bit-for-bit pins of the package's two outputs: lower-bound records and risk reports.

A refactor that should not move a number keeps both digests.  A change that
moves one on purpose retakes it and says why.
"""

import hashlib

from absmean import lower_bound_pipeline
from absmean.estimators import EstimatorSpec
from absmean.harness import AlternationAtoms, CustomVector, RunConfig, Scenario, TwoSpike, render_csv, run_config

# SHA-256 over the float.hex of every record field, for each (k, n, M) below
_PIPELINE_DIGEST = "52c509772e86b486555346882be0fde81f8491b2d1e59be15ad2001326a206f0"
# SHA-256 of render_csv over the reports of _config()
_REPORT_DIGEST = "84420fb35c7621b9375c128ef5eb0317cc79b0a0320b6c3907e10b3715ca07d3"


def test_lower_bound_records_are_pinned_bit_for_bit():
    h = hashlib.sha256()
    for k in (2, 8, 20, 40):
        for n in (10**4, 10**10):
            for M in (0.5, 1.0, 3.0):
                rec = lower_bound_pipeline(n, M, k_n=k)
                h.update((" ".join(f"{key}={float(rec[key]).hex()}" for key in sorted(rec)) + "\n").encode())
    assert h.hexdigest() == _PIPELINE_DIGEST


def _config() -> RunConfig:
    families = {
        "alternation": AlternationAtoms(k=4, M=1.5),
        "two_spike": TwoSpike(5, 2.0),
        "custom": CustomVector(tuple(0.25 * (j % 7) - 0.75 for j in range(64))),
    }
    estimators = {
        "bounded": EstimatorSpec(variant="bounded", M=2.0, K_override=5),
        "unbounded": EstimatorSpec(variant="unbounded"),
    }
    scenarios = tuple(
        Scenario(id=f"{name}-{variant}", family=family, n=64, replications=24, estimator=spec)
        for name, family in families.items()
        for variant, spec in estimators.items()
    )
    return RunConfig(scenarios=scenarios, seed=11, output_path="pins.csv")


def test_risk_reports_are_pinned_bit_for_bit(monkeypatch):
    monkeypatch.delenv("ABSMEAN_WORKERS", raising=False)
    text = render_csv(run_config(_config()))
    assert text.count("\n") == 7
    assert hashlib.sha256(text.encode()).hexdigest() == _REPORT_DIGEST

