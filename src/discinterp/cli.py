"""Command-line entry point.

    disc-interp <task> --config scenario.json --out results/ [--seed N]

Tasks: check, interpolate, oscillate, sharpness, growth-curve.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .harness import TASKS, run_scenario

_EPILOG = """\
output files (written into --out):
  constants.json   all scalar diagnostics of the run
  conditions.csv   check:        condition, best_constant, witness
  identity.csv     interpolate:  k, z_re, z_im, b_re, b_im, f_re, f_im, rel_err
  growth.csv       interpolate/growth-curve: r, ln_max_modulus, psi_tilde, ratio
  residual.csv     oscillate:    z_re, z_im, residual
  zeros.csv        oscillate:    k, winding
  growth_a.csv     oscillate:    r, ln_max_modulus, psi_tilde, ratio
  sharpness.csv    sharpness:    n, N_value, target, ratio
  witness.csv      sharpness (with eps0): n, lower, upper

exit codes: 0 pass, 2 config error, 3 invariant failure, 4 numeric failure.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disc-interp",
        description="Interpolation and oscillation experiments in the unit disc",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task, help=f"run a {task} scenario")
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return run_scenario(args.config, args.out, task=args.task, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
