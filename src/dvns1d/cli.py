"""Command-line front end.

Subcommands: run, sweep, refine, regularize, validate.  Output directory
resolution: --outdir flag, else the DVNS1D_OUTDIR environment variable, else
./runs/<scenario name>.  Exit codes: 0 success (a recorded vacuum breach or
a numerics end is a scientific outcome, not a failure), 1 configuration
error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import harness
from .errors import ConfigurationError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dvns1d",
        description="1D compressible flow with density-degenerate viscosity: "
                    "runs, parameter sweeps, refinement and regularization studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="scenario config file (INI)")
        p.add_argument("--outdir", help="output directory (overrides $DVNS1D_OUTDIR)")

    p_run = sub.add_parser("run", help="integrate one scenario and write its artifacts")
    add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="grid the (alpha, gamma) plane")
    add_common(p_sweep)
    p_sweep.add_argument("--alpha", nargs="+", type=float, required=True, metavar="A")
    p_sweep.add_argument("--gamma", nargs="+", type=float, required=True, metavar="G")

    p_refine = sub.add_parser("refine", help="self-convergence study over resolutions")
    add_common(p_refine)
    p_refine.add_argument("--N", nargs="+", type=int, required=True, dest="n_grid", metavar="N")

    p_reg = sub.add_parser("regularize", help="viscosity-floor/mollifier ladder")
    add_common(p_reg)
    p_reg.add_argument("--n", nargs="+", type=int, required=True, dest="reg_grid", metavar="n")

    p_val = sub.add_parser("validate", help="parse and validate a config, print the verdict")
    p_val.add_argument("config", help="scenario config file (INI)")
    return parser


def _outdir(args, scenario) -> str:
    if getattr(args, "outdir", None):
        return args.outdir
    env = os.environ.get(harness.OUTDIR_ENV)
    if env:
        return env
    return os.path.join("runs", scenario.name)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = harness.load_config(args.config)
        if args.command == "validate":
            print(scenario.theorem.describe())
            print(f"scenario '{scenario.name}': configuration valid")
            return 0
        outdir = _outdir(args, scenario)
        if args.command == "run":
            code = harness.run_scenario(scenario, outdir)
        elif args.command == "sweep":
            code = harness.sweep(scenario, args.alpha, args.gamma, outdir)
        elif args.command == "refine":
            code = harness.refinement_study(scenario, args.n_grid, outdir)
        else:  # regularize
            code = harness.regularization_study(scenario, args.reg_grid, outdir)
        print(f"artifacts written to {outdir}")
        return code
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
