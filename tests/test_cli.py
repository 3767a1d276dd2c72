"""Command-line interface: outputs, exit codes, and end-to-end runs."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import absmean
from absmean.errors import ConvergenceError
from absmean.harness.cli import main


def _write_data(tmp_path, values, name="data.txt"):
    path = tmp_path / name
    path.write_text("\n".join(f"{float(v)!r}" for v in values) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# approx

def test_approx_best_K1(capsys):
    assert main(["approx", "--K", "1", "--best"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "0 0.125"
    assert lines[1] == "2 1"
    assert lines[2] == "delta 0.125"
    pts = [float(x) for x in lines[3].split()[1:]]
    assert pts == [-1.0, -0.5, 0.0, 0.5, 1.0]


def test_approx_chebyshev_K1(capsys):
    assert main(["approx", "--K", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3           # no alternation line without --best
    assert float(lines[0].split()[1]) == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-15)
    assert float(lines[1].split()[1]) == pytest.approx(8.0 / (3.0 * math.pi), rel=1e-15)
    assert float(lines[2].split()[1]) == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-12)


def test_approx_rejects_out_of_range_K(capsys):
    assert main(["approx", "--K", "50", "--best"]) == 2
    assert main(["approx", "--K", "0"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_approx_convergence_failure_exit_code(capsys, monkeypatch):
    def exploding(K):
        raise ConvergenceError("exchange stalled", last_spread=0.3)

    monkeypatch.setattr("absmean.harness.cli.remez_best_approx", exploding)
    assert main(["approx", "--K", "2", "--best"]) == 4
    assert "exchange stalled" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# estimate

def test_estimate_zeros_bounded(tmp_path, capsys):
    path = _write_data(tmp_path, [0.0] * 12)
    assert main(["estimate", "--variant", "bounded", "--input", path, "--K", "1"]) == 0
    assert capsys.readouterr().out.strip() == "-0.875"


def test_estimate_variant_aliases(tmp_path, capsys):
    path = _write_data(tmp_path, [0.0] * 12)
    assert main(["estimate", "--variant", "b", "--input", path, "--K", "1"]) == 0
    assert capsys.readouterr().out.strip() == "-0.875"


def test_estimate_missing_input(tmp_path, capsys):
    assert main(["estimate", "--variant", "bounded", "--input", str(tmp_path / "no.txt")]) == 2
    assert "input file not found" in capsys.readouterr().err


def test_estimate_unparseable_input(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1.0\ntwo\n3.0\n")
    assert main(["estimate", "--variant", "bounded", "--input", str(path)]) == 3


def test_estimate_non_finite_input(tmp_path, capsys):
    path = _write_data(tmp_path, [1.0, float("nan"), 0.5] + [0.0] * 20)
    assert main(["estimate", "--variant", "bounded", "--input", str(path)]) == 3
    assert "error:" in capsys.readouterr().err


def test_estimate_series_overflow_is_a_data_error(tmp_path, capsys):
    path = _write_data(tmp_path, [1e200, 0.0])
    assert main(["estimate", "--variant", "b", "--input", path, "--K", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "overflows" in captured.err


def test_estimate_sparse_requires_valid_kn(tmp_path, capsys):
    path = _write_data(tmp_path, [0.0] * 12)
    # missing kn altogether is a configuration error
    assert main(["estimate", "--variant", "sparse", "--input", path]) == 2


def test_estimate_growing_and_unbounded_run(tmp_path, capsys):
    path = _write_data(tmp_path, list(np.linspace(-1, 1, 50)))
    assert main(["estimate", "--variant", "growing", "--input", path]) == 0
    v1 = float(capsys.readouterr().out)
    assert math.isfinite(v1)
    assert main(["estimate", "--variant", "unbounded", "--input", path, "--seed", "3"]) == 0
    v2 = float(capsys.readouterr().out)
    assert math.isfinite(v2)
    # the same seed reproduces the same randomized estimate
    assert main(["estimate", "--variant", "unbounded", "--input", path, "--seed", "3"]) == 0
    assert float(capsys.readouterr().out) == v2


# ---------------------------------------------------------------------------
# risk

def _risk_config(tmp_path, scenarios, fmt="csv", slack=2.0):
    out = tmp_path / ("reports." + fmt)
    doc = {
        "seed": 11,
        "output_path": str(out),
        "format": fmt,
        "compliance_slack": slack,
        "scenarios": scenarios,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    return str(cfg), out


def test_risk_end_to_end_pass(tmp_path, capsys):
    cfg, out = _risk_config(
        tmp_path,
        [
            {
                "id": "zero64",
                "family": {"kind": "zero"},
                "n": 64,
                "replications": 50,
                "estimator": {"variant": "bounded", "M": 1.0, "K": 1},
            }
        ],
    )
    assert main(["risk", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "zero64: bias ok" in text
    assert "compliance PASS" in text
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("scenario_id,n,variant,K,M,replications,")
    assert len(lines) == 2


def test_risk_flags_violations(tmp_path, capsys):
    # the mean vector breaks the promise |theta_i| <= M, so the measured
    # bias blows through its bound and the run exits 1
    cfg, out = _risk_config(
        tmp_path,
        [
            {
                "id": "broken-promise",
                "family": {"kind": "constant", "value": 3.0},
                "n": 16,
                "replications": 10,
                "estimator": {"variant": "bounded", "M": 1.0, "K": 1},
            }
        ],
    )
    assert main(["risk", "--config", cfg]) == 1
    text = capsys.readouterr().out
    assert "VIOLATION" in text
    assert "compliance FAIL" in text
    assert out.exists()


def test_risk_json_output(tmp_path, capsys):
    cfg, out = _risk_config(
        tmp_path,
        [
            {
                "id": "zero32",
                "family": {"kind": "zero"},
                "n": 32,
                "replications": 20,
                "estimator": {"variant": "bounded", "M": 1.0, "K": 1},
            }
        ],
        fmt="json",
    )
    assert main(["risk", "--config", cfg]) == 0
    doc = json.loads(out.read_text())
    assert doc["metadata"]["rng"] == "philox4x64"
    assert doc["reports"][0]["scenario_id"] == "zero32"


def test_risk_missing_config(tmp_path, capsys):
    assert main(["risk", "--config", str(tmp_path / "absent.json")]) == 2
    assert "config file not found" in capsys.readouterr().err


def test_risk_malformed_config(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{\"seed\": }")
    assert main(["risk", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"seed": 1, "output_path": "x.csv", "scenarios": [], "typo": 1}))
    assert main(["risk", "--config", str(cfg)]) == 2
    bad_M = {"id": "z", "family": {"kind": "zero"}, "n": 32, "replications": 4,
             "estimator": {"variant": "bounded", "M": "abc"}}
    cfg.write_text(json.dumps({"seed": 1, "output_path": "x.csv", "scenarios": [bad_M]}))
    assert main(["risk", "--config", str(cfg)]) == 2


def test_risk_huge_integer_is_a_config_error(tmp_path, capsys, monkeypatch):
    # a 400-digit JSON integer does not fit a double; every real-valued field
    # must reject it as a configuration error, before any scenario runs
    def must_not_run(cfg):
        raise AssertionError("run_config called despite a bad config")

    monkeypatch.setattr("absmean.harness.cli.run_config", must_not_run)
    huge = 10**400
    zero = {"kind": "zero"}
    bounded = {"variant": "bounded", "M": 1.0, "K": 1}
    for family, estimator, slack in (
        (zero, {"variant": "bounded", "M": huge}, 2.0),
        (zero, {"variant": "growing", "c": huge}, 2.0),
        ({"kind": "constant", "value": huge}, bounded, 2.0),
        ({"kind": "custom", "values": [0.0] * 31 + [huge]}, bounded, 2.0),
        (zero, bounded, huge),
    ):
        scenario = {"id": "z", "family": family, "n": 32, "replications": 4, "estimator": estimator}
        cfg, _ = _risk_config(tmp_path, [scenario], slack=slack)
        assert main(["risk", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_risk_scenario_that_cannot_run_fails_before_running(tmp_path, capsys, monkeypatch):
    # the second scenario is bad: n below the cutoff rules' 17, K past the
    # best basis' 40, or kn > n; the first must not run
    def must_not_run(cfg):
        raise AssertionError("run_config called despite a scenario that cannot run")

    monkeypatch.setattr("absmean.harness.cli.run_config", must_not_run)
    good = {"id": "good", "family": {"kind": "zero"}, "n": 32, "replications": 4,
            "estimator": {"variant": "bounded", "M": 1.0, "K": 1}}
    for n, estimator in (
        (16, {"variant": "bounded", "M": 1.0}),
        (64, {"variant": "bounded", "M": 1.0, "K": 45}),
        (17, {"variant": "sparse", "kn": 20}),
    ):
        bad = {"id": "bad", "family": {"kind": "zero"}, "n": n, "replications": 4, "estimator": estimator}
        cfg, _ = _risk_config(tmp_path, [good, bad])
        assert main(["risk", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenario 'bad': ") and err.count("\n") == 1


def test_risk_bad_output_path_fails_before_running(tmp_path, capsys, monkeypatch):
    def must_not_run(cfg):
        raise AssertionError("run_config called despite a bad output_path")

    monkeypatch.setattr("absmean.harness.cli.run_config", must_not_run)
    scenario = {"id": "z", "family": {"kind": "zero"}, "n": 32, "replications": 4,
                "estimator": {"variant": "bounded", "M": 1.0, "K": 1}}
    cfg = tmp_path / "config.json"
    # a missing directory, not a permission bit: root passes os.access
    for path in (tmp_path / "missing" / "out.csv", tmp_path):
        cfg.write_text(json.dumps({"seed": 1, "output_path": str(path), "scenarios": [scenario]}))
        assert main(["risk", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# lowerbound

def test_lowerbound_emits_json_record(capsys):
    assert main(["lowerbound", "--n", "10000", "--M", "1.0"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert set(rec) == {"k_n", "delta_k", "m_gap", "v0_sq", "I", "bound_value"}
    assert rec["k_n"] == 8
    assert rec["bound_value"] > 0.0
    assert math.isclose(rec["m_gap"], 2.0 * rec["delta_k"], rel_tol=1e-9)


def test_lowerbound_explicit_kn(capsys):
    assert main(["lowerbound", "--n", "10000", "--M", "0.5", "--kn", "4"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["k_n"] == 4
    assert math.isclose(rec["delta_k"], 0.06762089927778447, rel_tol=1e-11)
    assert math.isclose(rec["m_gap"], 2.0 * 0.5 * rec["delta_k"], rel_tol=1e-9)


def test_lowerbound_past_the_double_range(capsys):
    # at M = 100 the distance and its tail bound leave the double range: the
    # record says I = inf and bound 0 instead of failing
    assert main(["lowerbound", "--n", "10000", "--M", "100"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["k_n"] == 8 and rec["I"] == math.inf and rec["bound_value"] == 0.0


def test_lowerbound_bad_kn(capsys):
    assert main(["lowerbound", "--n", "10000", "--M", "1.0", "--kn", "3"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# selftest

def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out or "ok" in out


# ---------------------------------------------------------------------------
# start-up

def test_library_and_cli_load_without_scipy():
    # scipy is a test dependency only; importing it would cost every command its start-up
    src = os.path.dirname(os.path.dirname(absmean.__file__))
    code = "import sys, absmean, absmean.harness.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.stdout.strip() == "False"
