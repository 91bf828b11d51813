"""Command-line entry point.

Subcommands: setup1 | setup2 | fig4 | velocity-scan | selftest.
Exit codes: 0 success, 1 validation/usage error, 2 convergence or oracle
failure (any `errors.CavityRamseyError`: series cap hit, no pulse root,
truncation leak or tail) or a failing selftest.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from .config import CONFIG_KEYS, PhysicalConfig, load_config
from .errors import CavityRamseyError
from .experiments import (
    MAX_POINTS,
    run_fig4,
    run_selftest,
    run_setup1,
    run_setup2,
    run_velocity_scan,
)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with code 1 (code 2 is reserved for convergence)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"{flag} expects a comma-separated list of numbers: {exc}")
    if not values:
        raise ValueError(f"{flag} expects at least one number, got {text!r}")
    return values


def _parse_grid(text: str) -> list[float]:
    """start:stop:step, endpoints inclusive (0:1:0.02 gives 51 points)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--t-grid expects start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"--t-grid needs finite start, stop and step, got {text!r}")
    if step <= 0 or stop < start:
        raise ValueError("--t-grid needs step > 0 and stop >= start")
    span = (stop - start) / step  # inf when it overflows
    if not span + 1e-9 < MAX_POINTS:
        raise ValueError(f"--t-grid {text!r} gives more than {MAX_POINTS} points")
    return [start + i * step for i in range(int(span + 1e-9) + 1)]


def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON config file; keys: " + ", ".join(CONFIG_KEYS))
    common.add_argument("--out", metavar="PATH",
                        help="write the report here instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--variant", choices=("A", "B"),
                        help="thermal-series transcription variant "
                             "(A, the default, matches the integrator)")
    # the subcommands that sample a fringe
    fringe = _Parser(add_help=False)
    fringe.add_argument("--phi-points", type=int, default=65,
                        help="fringe sampling density (default 65)")

    parser = _Parser(
        prog="cavity-ramsey",
        description="Ramsey interferometer simulations with a quantized pulse zone",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("setup1", parents=[common, fringe],
                        help="single quantized-zone scan over mean photon number")
    p1.add_argument("--n-values", metavar="LIST",
                    help="comma-separated mean photon numbers")

    sub.add_parser("setup2", parents=[common, fringe],
                   help="shared-mode fringe and thermal visibility")

    p4 = sub.add_parser("fig4", parents=[common],
                        help="visibility-vs-wait curves")
    p4.add_argument("--t-grid", default="0:1:0.02", metavar="START:STOP:STEP",
                    help="inclusive grid of dimensionless waits (default 0:1:0.02)")

    pv = sub.add_parser("velocity-scan", parents=[common],
                        help="predicted contrast for slower beams")
    pv.add_argument("--velocities", metavar="LIST",
                    help="comma-separated beam velocities in m/s")

    sub.add_parser("selftest", parents=[common],
                   help="oracle-vs-closed-form consistency suite")
    return parser


def _load(args) -> PhysicalConfig:
    cfg = load_config(args.config) if args.config else PhysicalConfig()
    if args.variant:
        cfg = replace(cfg, series=replace(cfg.series, variant=args.variant))
    return cfg


def _emit(report, args) -> None:
    text = report.render(args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# built once per process: main() may be called many times, and each call
# only parses
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "setup1":
            n_values = (_parse_float_list(args.n_values, "--n-values")
                        if args.n_values is not None else None)
            report = run_setup1(n_values, cfg, phi_points=args.phi_points)
        elif args.command == "setup2":
            report = run_setup2(cfg, phi_points=args.phi_points)
        elif args.command == "fig4":
            report = run_fig4(_parse_grid(args.t_grid), cfg)
        elif args.command == "velocity-scan":
            velocities = (_parse_float_list(args.velocities, "--velocities")
                          if args.velocities is not None else None)
            report = run_velocity_scan(velocities, cfg)
        else:
            report = run_selftest(cfg)
        _emit(report, args)
        if args.command != "selftest":
            return 0
        # the verdict goes to stderr, so stdout stays a parseable report
        if not report.meta["all_pass"]:
            print("selftest: FAILED", file=sys.stderr)
            return 2
        print("selftest: all checks passed", file=sys.stderr)
        return 0
    except CavityRamseyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
