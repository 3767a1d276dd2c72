"""Command-line interface: outputs, exit codes, and end-to-end runs."""

import ast
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import absmean
from absmean.harness import parse_config
from absmean.harness.cli import main
from absmean.polyapprox import remez_best_approx


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


@pytest.mark.parametrize("K", [1, 3, 12])
def test_approx_best_prints_exchange_diagnostics_on_stderr_only(capsys, K):
    # --best used to run the exchange and print its diagnostics on stderr.
    # It now reads the committed table, which describes no run, so stderr is
    # empty and stdout is the table's solution, byte for byte as before.
    assert main(["approx", "--K", str(K), "--best"]) == 0
    out, err = capsys.readouterr()
    sol = remez_best_approx(K)
    if K == 1:
        assert out == "0 0.125\n2 1\ndelta 0.125\nalternation -1 -0.5 0 0.5 1\n"
    assert out.count("\n") == K + 3 and "exchange" not in out
    lines = out.split("\n")
    assert lines[K + 1] == f"delta {sol.delta:.17g}"
    assert lines[K + 2] == "alternation " + " ".join(f"{x:.17g}" for x in sol.alternation_points)
    assert err == ""


def test_approx_chebyshev_writes_nothing_to_stderr(capsys):
    assert main(["approx", "--K", "4"]) == 0
    assert capsys.readouterr().err == ""


def test_approx_rejects_out_of_range_K(capsys):
    assert main(["approx", "--K", "50", "--best"]) == 2
    assert main(["approx", "--K", "0"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


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


def test_estimate_unreadable_input(tmp_path, capsys):
    # a directory is not a data file: exit 2 like a missing one, with no traceback
    assert main(["estimate", "--variant", "bounded", "--input", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read input file {tmp_path}: ")


def test_estimate_non_utf8_input_is_unparseable(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"1.0\n\xff\xfe\n3.0\n")
    assert main(["estimate", "--variant", "bounded", "--input", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: could not parse ")


def test_estimate_unparseable_input(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1.0\ntwo\n3.0\n")
    assert main(["estimate", "--variant", "bounded", "--input", str(path)]) == 3


@pytest.mark.parametrize("text", ["", "\n\n", "# a comment only\n"])
def test_estimate_empty_input_is_one_error_line_without_a_warning(tmp_path, text):
    # numpy's empty-input UserWarning, turned into an error, would end the run with exit 1
    path = tmp_path / "empty.txt"
    path.write_text(text)
    src = os.path.dirname(os.path.dirname(absmean.__file__))
    code = "import sys; from absmean.harness.cli import main; sys.exit(main())"
    out = subprocess.run([sys.executable, "-W", "error::UserWarning", "-c", code,
                          "estimate", "--variant", "b", "--input", str(path)],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.returncode == 3
    assert out.stdout == ""
    assert re.fullmatch(r"error: [^\n]*\n", out.stderr), out.stderr


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


def test_risk_unreadable_config(tmp_path, capsys):
    # exit 1 means compliance violations, so a config that cannot be read must not crash with it
    assert main(["risk", "--config", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read config file {tmp_path}: ")
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes(b'{"seed": 1, "output_path": "caf\xe9.csv", "scenarios": []}')
    assert main(["risk", "--config", str(cfg)]) == 2
    assert "can't decode byte 0xe9" in capsys.readouterr().err


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


@pytest.mark.parametrize("M", [27.0, 26.6])
def test_risk_bounds_past_the_double_range_exit_3_before_any_replication(tmp_path, capsys, monkeypatch, M):
    # the bounded variance bound 2 e^{M^2} 2^{8K} K^{2K} / n passes the double
    # range: math.exp overflows at M = 27, the product at M = 26.6
    def no_replication(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr("absmean.harness.engine.run_replication", no_replication)
    scenario = {"id": "big-M", "family": {"kind": "zero"}, "n": 64, "replications": 4,
                "estimator": {"variant": "bounded", "M": M, "K": 1}}
    cfg, out = _risk_config(tmp_path, [scenario], fmt="json")
    assert main(["risk", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: scenario 'big-M': ") and captured.err.count("\n") == 1
    assert "double range" in captured.err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


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


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_lowerbound_past_the_double_range(capsys):
    # at M = 100 the distance and its tail bound leave the double range: the
    # record says I = null (inf in the library) and bound 0 instead of failing,
    # and stays strict JSON
    assert main(["lowerbound", "--n", "10000", "--M", "100"]) == 0
    rec = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert rec["k_n"] == 8 and rec["I"] is None and rec["bound_value"] == 0.0


def test_lowerbound_at_huge_n_where_the_distance_is_roundoff(capsys):
    # I_1^2 at k = 40, M = 0.5 is cancellation roundoff far above its tail
    # bound; n = 1e22 times it would fail the bound check without the fallback
    assert main(["lowerbound", "--n", "10000000000000000000000", "--M", "0.5", "--kn", "40"]) == 0
    rec = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert rec["k_n"] == 40 and rec["I"] >= 0.0 and rec["bound_value"] > 0.0


@pytest.mark.parametrize("M", ["1e160", "1e308"])
def test_lowerbound_atoms_far_apart_exit_4_without_a_warning(M):
    # run in a fresh interpreter, so a numpy overflow warning would print on stderr
    src = os.path.dirname(os.path.dirname(absmean.__file__))
    code = "import sys; from absmean.harness.cli import main; sys.exit(main())"
    out = subprocess.run([sys.executable, "-c", code, "lowerbound", "--n", "100", "--M", M, "--kn", "2"],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.returncode == 4
    assert "quadrature panels" in out.stderr and "RuntimeWarning" not in out.stderr


def test_lowerbound_bad_kn(capsys):
    assert main(["lowerbound", "--n", "10000", "--M", "1.0", "--kn", "3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_lowerbound_default_kn_past_80_names_the_rule(capsys):
    # select_kn_bounded(n) passes 80 from n = 1e143; the caller passed no k_n, so the
    # error names the rule and its value instead of an argument k
    assert main(["lowerbound", "--n", str(10**200), "--M", "1.0"]) == 2
    err = capsys.readouterr().err
    assert "select_kn_bounded(n) = 106" in err and "pass k_n" in err and "k must be" not in err
    assert main(["lowerbound", "--n", str(10**142), "--M", "1.0"]) == 0
    assert json.loads(capsys.readouterr().out)["k_n"] == 80
    assert main(["lowerbound", "--n", str(10**200), "--M", "1.0", "--kn", "80"]) == 0


# ---------------------------------------------------------------------------
# selftest

def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out or "ok" in out


# ---------------------------------------------------------------------------
# exit codes

_EXPORTED_ERRORS = [obj for obj in (getattr(absmean, name) for name in absmean.__all__)
                    if isinstance(obj, type) and issubclass(obj, absmean.AbsmeanError)]
# the table in the module docstring of absmean.harness.cli and in the README
_EXIT_CODES = {absmean.DataError: 3, absmean.RangeError: 3, absmean.IntegrationError: 4}


@pytest.mark.parametrize("error", _EXPORTED_ERRORS, ids=lambda e: e.__name__)
def test_every_exported_error_maps_to_its_documented_exit_code(capsys, monkeypatch, error):
    def failing(*args, **kwargs):
        raise error("planted failure")

    monkeypatch.setattr("absmean.harness.cli.lower_bound_pipeline", failing)
    assert main(["lowerbound", "--n", "1000", "--M", "1.0"]) == _EXIT_CODES.get(error, 2)
    assert capsys.readouterr().err == "error: planted failure\n"


# ---------------------------------------------------------------------------
# start-up

def test_library_and_cli_load_without_scipy():
    # scipy is a test dependency only; importing it would cost every command its start-up
    src = os.path.dirname(os.path.dirname(absmean.__file__))
    code = ("import sys, absmean, absmean.harness.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.stdout.strip() == "[]"


def _readme_block(pattern: str) -> str:
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as f:
        block = re.search(pattern, f.read(), re.S)
    assert block is not None
    return block.group(1)


def test_readme_quick_start_runs_on_the_package_surface(capsys):
    # the README's library example runs as written, importing only names in absmean.__all__
    tree = ast.parse(_readme_block(r"## Library quick start\s+```python\n(.*?)```"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "absmean" for alias in node.names}
    assert imported and imported <= set(absmean.__all__)
    exec(compile(tree, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 4 and all(math.isfinite(float(v)) for v in printed)


def test_readme_risk_configuration_parses_as_written():
    # the documented config is a document parse_config accepts, so the README's
    # schema cannot drift from the dataclasses it is read into
    cfg = parse_config(_readme_block(r"### Risk configuration\n.*?```json\n(.*?)```"))
    assert [s.id for s in cfg.scenarios] == ["zero-bounded", "spikes"]
    assert cfg.scenarios[1].estimator.k_n == 8 and cfg.workers == 2
