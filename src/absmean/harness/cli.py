"""Command-line interface.

Subcommands:

  approx      print series coefficients for |x| on [-1, 1]
  estimate    one estimate from a data file (one observation per line)
  risk        run a scenario suite from a JSON config, write CSV/JSON
  lowerbound  construct least-favorable priors and evaluate the risk bound
  selftest    run the invariant suite

Exit codes:

  0  success (risk: all bounds met)
  1  compliance violations (risk)
  2  bad flags, configuration errors, and arguments that errors.check_int or
     check_real reject; an input or config file that is missing or cannot
     be read (a directory, no read permission, or for risk a config that is
     not UTF-8); for risk, also an output_path whose directory is missing or
     unwritable, or that names a directory, checked before any scenario runs
  3  data errors (DataError, RangeError): unparseable or non-finite
     observations (an input that is not UTF-8 is unparseable), data on
     which the series overflows the double range, or for risk a report
     bound past the double range, checked before any scenario runs
  4  IntegrationError: the chi-square quadrature missed its tolerance or
     needs more panels than it evaluates
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

import numpy as np

from ..errors import AbsmeanError, DataError, IntegrationError, RangeError
from ..estimators import VARIANTS, EstimatorSpec, run_estimator
from ..lowerbound import lower_bound_pipeline
from ..polyapprox import build_G_K, remez_best_approx, uniform_error
from .engine import bound_compliance_report, check_output_path, run_config, write_reports
from .scenarios import load_config
from .selftest import run_selftest

_VARIANT_ALIASES = {alias: v for v in VARIANTS for alias in (v, v[0])}   # full name or first letter


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="absmean",
        description="Estimate the mean absolute value of normal means; "
        "polynomial approximation and minimax lower-bound tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approx", help="print series coefficients for |x|")
    p.add_argument("--K", type=int, required=True, metavar="INT",
                   help="half-degree of the even series (degree 2K)")
    p.add_argument("--best", action="store_true",
                   help="minimax coefficients instead of the Chebyshev truncation")

    p = sub.add_parser("estimate", help="one estimate from a data file")
    p.add_argument("--variant", required=True, choices=sorted(_VARIANT_ALIASES),
                   help="estimator variant (single letter or full name)")
    p.add_argument("--input", required=True, metavar="FILE",
                   help="text file, one observation per line")
    p.add_argument("--M", type=float, default=1.0, help="mean bound for the bounded variant")
    p.add_argument("--K", type=int, default=None, help="series cutoff override")
    p.add_argument("--kn", type=int, default=None, help="support size for the sparse variant")
    p.add_argument("--seed", type=int, default=EstimatorSpec.seed, help="seed for the sample-splitting draw")
    p.add_argument("--c", type=float, default=EstimatorSpec.c, help="radius constant for the growing variant")
    p.add_argument("--basis", choices=["best", "chebyshev"], default=None)

    p = sub.add_parser("risk", help="run scenarios from a JSON config")
    p.add_argument("--config", required=True, metavar="FILE")

    p = sub.add_parser("lowerbound", help="evaluate the minimax lower bound")
    p.add_argument("--n", type=int, required=True, help="number of coordinates")
    p.add_argument("--M", type=float, required=True, help="mean bound")
    p.add_argument("--kn", type=int, default=None,
                   help="moment-matching order (default: selected from n)")

    sub.add_parser("selftest", help="run the invariant suite")
    return parser


def _cmd_approx(args) -> int:
    if args.best:
        sol = remez_best_approx(args.K)
        poly, delta = sol.poly, sol.delta
    else:
        poly = build_G_K(args.K)
        delta = uniform_error(poly)
    for k, g in enumerate(poly.half_coeffs):
        print(f"{2 * k} {g:.17g}")
    print(f"delta {delta:.17g}")
    if args.best:
        print("alternation " + " ".join(f"{x:.17g}" for x in sol.alternation_points))
    return 0


def _cmd_estimate(args) -> int:
    try:
        # an empty file is reported by run_estimator's DataError, not by numpy's warning
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            y = np.loadtxt(args.input, ndmin=1)
    except FileNotFoundError:
        print(f"error: input file not found: {args.input}", file=sys.stderr)
        return 2
    except OSError as e:   # a directory, or no read permission
        print(f"error: cannot read input file {args.input}: {e.strerror}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: could not parse {args.input}: {e}", file=sys.stderr)
        return 3
    spec = EstimatorSpec(
        variant=_VARIANT_ALIASES[args.variant],
        M=args.M,
        K_override=args.K,
        basis=args.basis,
        k_n=args.kn,
        c=args.c,
        seed=args.seed,
    )
    print(f"{run_estimator(spec, y):.17g}")
    return 0


def _cmd_risk(args) -> int:
    try:
        cfg = load_config(args.config)
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as e:   # a directory, no read permission, or not UTF-8
        print(f"error: cannot read config file {args.config}: {e}", file=sys.stderr)
        return 2
    check_output_path(cfg.output_path)
    reports = run_config(cfg)
    write_reports(reports, cfg.output_path, cfg.format)
    rows = bound_compliance_report(reports, slack=cfg.compliance_slack)
    for r in rows:
        print(
            f"{r.scenario_id}: bias {'ok' if r.bias_ok else 'VIOLATION'} "
            f"(x{r.bias_ratio:.3g}), variance {'ok' if r.var_ok else 'VIOLATION'} "
            f"(x{r.var_ratio:.3g})"
        )
    all_ok = all(r.ok for r in rows)
    print(f"wrote {cfg.output_path}; compliance {'PASS' if all_ok else 'FAIL'} "
          f"at slack {cfg.compliance_slack:g}")
    return 0 if all_ok else 1


def _cmd_lowerbound(args) -> int:
    record = lower_bound_pipeline(args.n, args.M, k_n=args.kn)
    # JSON has no inf: a saturated field (I past the double range) prints as null
    shown = {key: value if math.isfinite(value) else None for key, value in record.items()}
    print(json.dumps(shown, indent=2, allow_nan=False))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "approx":
            return _cmd_approx(args)
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "risk":
            return _cmd_risk(args)
        if args.command == "lowerbound":
            return _cmd_lowerbound(args)
        return 0 if run_selftest() else 1
    except IntegrationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (DataError, RangeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except AbsmeanError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
