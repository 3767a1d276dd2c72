"""absmean benchmark: one command per workload, run from the root of a checkout.

    python3 perfbench/run.py --workload mc-large-n --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one driving process):

  mc-large-n        run_config on the canonical suite at n = 1e6, workers = 1
  mc-small-n        the same suite at n = 64 and n = 1e4, workers = nproc
  lowerbound-sweep  lower_bound_pipeline for even k in 2..80 x n in {1e2, 1e6, 1e12}
                    x M in {0.5, 1, 2}, in an order shuffled by the seed

Every session is a fresh interpreter (perfbench/session.py), so library
caches start cold as they do for a command-line user.  With --trace 0 the
run starts sessions until --seconds have passed (at least MIN_SESSIONS) and
prints the end-to-end metrics; with --trace 1 it repeats rounds of one untraced
and one traced session at workers = 1 (plus one untraced at nproc workers on
mc-small-n) for --seconds and prints the median of each per-layer metric.  The last line of stdout is the result object; the line
before it is a record with the machine, the report digests and the raw
samples.  Exit code 2 means the library sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from spans import ROOT_SPAN

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SESSION = os.path.join(HERE, "session.py")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("mc-large-n", "mc-small-n", "lowerbound-sweep")
# Passes per session: the first pass is cold, the rest are warm.  The sweep
# has cold and warm calls inside its single pass.
PASSES = {"mc-large-n": 2, "mc-small-n": 3, "lowerbound-sweep": 1}
MIN_SESSIONS = 3
RUN_BUDGET_S = 170.0   # the whole run must end within 180 s

NPROC = os.cpu_count() or 1

# Per-layer metrics.  Span self times are reported as a share of the traced
# root span, so that every layer reads 0 where a workload does not reach it
# and the shares of all spans plus `trace.glue` sum to 100.
SPAN_SHARES = (
    "rng.stream",
    "rng.derive_seed",
    "scenarios.draw_theta",
    "scenarios.parse_config",
    "estimators.run_estimator",
    "estimators.estimate_bounded",
    "estimators.estimate_growing",
    "estimators.estimate_unbounded",
    "estimators.estimate_sparse",
    "estimators.split_samples",
    "engine.run_config",
    "engine.run_scenario",
    "engine.run_replication",
    "engine.analytic_bounds",
    "polyapprox.remez_best_approx",
    "lowerbound.construct_prior_pair",
    "lowerbound.chi_square_mixture_1d",
    "lowerbound.lower_bound_pipeline",
)
SPAN_CALLS = (
    "rng.stream",
    "rng.derive_seed",
    "scenarios.draw_theta",
    "estimators.run_estimator",
    "polyapprox.remez_best_approx",
    "lowerbound.construct_prior_pair",
    "lowerbound.chi_square_mixture_1d",
)


class SessionError(RuntimeError):
    pass


def run_session(workload: str, seed: int, passes: int, deadline: float,
                workers: int | None = None, trace: bool = False, spans: str | None = None) -> dict:
    """Start one fresh interpreter, wait for it, and return its result with `setup_s`."""
    cmd = [sys.executable, SESSION, "--workload", workload, "--seed", str(seed), "--passes", str(passes)]
    if workers is not None:
        cmd += ["--workers", str(workers)]
    if trace:
        cmd += ["--trace"] + (["--spans", spans] if spans else [])
    env = dict(os.environ)
    env.pop("ABSMEAN_WORKERS", None)   # the workload fixes its worker count
    # time.monotonic is CLOCK_MONOTONIC on Linux, shared by all processes, so
    # the child's ready stamp minus the spawn stamp is the set-up time.
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the session and any pool workers
        proc.communicate()
        raise SessionError(f"{workload} session exceeded the run budget")
    if proc.returncode != 0:
        raise SessionError(f"{workload} session exited {proc.returncode}:\n{err[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def machine() -> dict:
    import numpy
    import scipy

    cpuinfo = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                cpuinfo.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "cpu_model": cpuinfo.get("model name", platform.processor()),
        "llc": cpuinfo.get("cache size", "unknown"),   # last-level cache on x86 Linux
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def tally(sessions: list[dict]) -> tuple[int, int, list[str], set[str]]:
    attempted = failed = 0
    problems, digests = [], set()
    for s in sessions:
        for p in s["passes"]:
            attempted += p["attempted"]
            failed += p["failed"]
            problems += p["problems"]
            digests.add(p["digest"])
    return attempted, failed, problems, digests


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(sessions: list[dict]) -> dict:
    passes = [p for s in sessions for p in s["passes"]]
    cold = [ms for p in passes for ms in p["cold_ms"]]
    warm = [ms for p in passes for ms in p["warm_ms"]]
    return {
        "setup_s": metric(statistics.median(s["setup_s"] for s in sessions), "s"),
        "ops_per_s": metric(sum(p["ops"] for p in passes) / sum(p["ops_s"] for p in passes), "1/s"),
        "cold_call_ms_p50": metric(statistics.median(cold), "ms"),
        "warm_call_ms_p50": metric(statistics.median(warm), "ms"),
        "warm_call_ms_p95": metric(statistics.quantiles(warm, n=20, method="inclusive")[-1], "ms"),
        "peak_rss_mb": metric(max(s["rss_self_mb"] + s["rss_children_mb"] for s in sessions), "MB"),
    }


def per_layer(untraced: dict, traced: dict, parallel: dict | None) -> tuple[dict, list[str]]:
    layers = traced["layers"]
    root_s = layers["root_s"]
    self_s, calls = layers["self_s"], layers["calls"]
    problems = []
    unknown = set(self_s) - set(SPAN_SHARES) - {ROOT_SPAN}
    if unknown:
        problems.append(f"spans without a metric: {sorted(unknown)}")
    if layers["self_sum_error_s"] > 1e-6 * root_s:
        problems.append(f"self times miss the root span by {layers['self_sum_error_s']:.3g} s")
    if calls.get("estimators.run_estimator", 0) != layers["expected_estimator_calls"]:
        problems.append("run_estimator span count differs from the replications run")

    serial_wall = untraced["passes"][0]["wall_s"]
    traced_wall = traced["passes"][0]["wall_s"]
    out = {}
    for name in SPAN_SHARES:
        out[f"{name}.self_pct"] = metric(100.0 * self_s.get(name, 0.0) / root_s, "%")
    out["trace.glue.self_pct"] = metric(100.0 * self_s.get(ROOT_SPAN, 0.0) / root_s, "%")
    for name in SPAN_CALLS:
        out[f"{name}.calls"] = metric(calls.get(name, 0), "count")
    cache = layers["approx_coefficients"]
    out["estimators.approx_coefficients.hits"] = metric(cache["hits"], "count")
    out["estimators.approx_coefficients.misses"] = metric(cache["misses"], "count")
    out["estimators.coords"] = metric(layers["coords"], "count")
    out["estimators.recurrence_steps"] = metric(layers["recurrence_steps"], "count")
    pool = 0.0
    if parallel is not None:
        parallel_wall = parallel["passes"][0]["wall_s"]
        pool = 100.0 * (parallel_wall - serial_wall / NPROC) / parallel_wall
    out["engine.pool_overhead_pct"] = metric(pool, "%")
    out["trace.root_s"] = metric(root_s, "s")
    out["trace.overhead_pct"] = metric(100.0 * (traced_wall - serial_wall) / serial_wall, "%")
    return out, problems


def main() -> int:
    ap = argparse.ArgumentParser(description="absmean benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2**64:
        print("error: --seed must be in [0, 2^64)", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "absmean", "__init__.py")):
        print(f"error: no absmean sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")

    def one_round() -> list[dict]:
        if not args.trace:
            return [run_session(args.workload, args.seed, PASSES[args.workload], deadline)]
        # serial untraced, traced, and (mc-small-n) untraced at the workload's workers
        rnd = [run_session(args.workload, args.seed, 1, deadline, workers=1),
               run_session(args.workload, args.seed, 1, deadline, workers=1, trace=True, spans=spans)]
        if args.workload == "mc-small-n":
            rnd.append(run_session(args.workload, args.seed, 1, deadline))
        return rnd

    rounds = []
    min_rounds = 1 if args.trace else MIN_SESSIONS
    try:
        while time.monotonic() - start < args.seconds or len(rounds) < min_rounds:
            t0 = time.monotonic()
            rounds.append(one_round())
            if time.monotonic() + (time.monotonic() - t0) * 1.5 > deadline:
                break
    except SessionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    sessions = [s for rnd in rounds for s in rnd]
    trace_problems = []
    if args.trace:
        per_round = []
        for rnd in rounds:
            layers, found = per_layer(rnd[0], rnd[1], rnd[2] if len(rnd) > 2 else None)
            per_round.append(layers)
            trace_problems += found
        metrics = {
            name: metric(statistics.median(r[name]["value"] for r in per_round), first["unit"])
            for name, first in per_round[0].items()
        }
    else:
        metrics = end_to_end(sessions)

    attempted, failed, problems, digests = tally(sessions)
    problems = trace_problems + problems
    if len(digests) != 1:
        problems.append(f"passes of one seed gave {len(digests)} different report digests")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "report_sha256": sorted(digests),
        "sessions": len(sessions),
        "setup_s": [s["setup_s"] for s in sessions],
        "pass_wall_s": [[p["wall_s"] for p in s["passes"]] for s in sessions],
        "pass_speed": [[p["speed"] for p in s["passes"]] for s in sessions],
        "problems": problems[:20],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
