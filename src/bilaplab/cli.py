"""Command-line front end.

Subcommands:

    solve <config>            minimize the energy, write fields.csv + summary.json
    diagnose <config>         solve plus radial frequency profiles per center
    blowup <config>           solve plus free-boundary extraction and blow-up fits
    extension-check           half-plane extension DtN ratio check (no config)
    verify [--level quick|full]   run the acceptance suite, table output

Exit codes: 0 success, 1 a check or computation failed, 2 usage or config error;
for extension-check, 2 also for a mode k > 32 or a height not finite in [8, 64].
The environment variable BILAPLAB_OUTPUT_ROOT relocates run directories.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, parse_config, run
from .extension import (RATIO_TARGET, RATIO_TOLERANCE, SPREAD_LIMIT, FourierTrace,
                        check_height, check_modes, dtn_compare)

_STAGE_MAP = {
    "solve": ("solve",),
    "diagnose": ("solve", "profile"),
    "blowup": ("solve", "gamma"),
}


def _load_config(path: str) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(p.read_text())


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    # the command's stages, narrowed by the config's `stages` key; solve always runs
    cfg.stages = tuple(s for s in _STAGE_MAP[args.command]
                       if s == "solve" or s in cfg.stages)
    out = run(cfg)
    print(f"wrote {out}")
    return 0


def _cmd_extension_check(args: argparse.Namespace) -> int:
    try:
        modes = sorted({int(tok) for tok in args.modes.split(",") if tok.strip()})
    except ValueError:
        print(f"error: --modes expects comma-separated integers, got {args.modes!r}",
              file=sys.stderr)
        return 2
    if not modes or any(k < 1 for k in modes):
        print("error: --modes needs at least one positive integer", file=sys.stderr)
        return 2
    # the strip's own input rules, checked before anything is allocated
    for option, check, value in (("--height", check_height, args.height),
                                 ("--modes", check_modes, modes)):
        try:
            check(value)
        except ValueError as exc:
            print(f"error: {option}: {exc}", file=sys.stderr)
            return 2
    coeffs = np.zeros(max(modes) + 1)
    coeffs[modes] = 1.0
    report = dtn_compare(FourierTrace(coeffs), Y=args.height)
    target = f"{RATIO_TARGET:.2f}+-{RATIO_TOLERANCE:.0%}"
    print(f"{'mode':>6s} {'ratio':>12s} {'target':>10s} {'status':>8s}")
    for k in modes:
        print(f"{k:6d} {report.ratios[k]:12.6f} {target:>10s} "
              f"{'pass' if report.mode_ok(k) else 'FAIL':>8s}")
    print(f"spread {report.spread:.6f} (target <= {SPREAD_LIMIT}): "
          f"{'pass' if report.spread_ok else 'FAIL'}")
    print(f"calibrated inverse constant: {report.calibrated_inverse_constant:.6f}")
    return 0 if report.ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite
    return run_suite(level=args.level)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: parsing does not change it."""
    ap = argparse.ArgumentParser(prog="bilaplab", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    for name, hlp in [("solve", "minimize the energy and write field artifacts"),
                      ("diagnose", "solve plus radial frequency profiles"),
                      ("blowup", "solve plus free-boundary analysis")]:
        sp = sub.add_parser(name, help=hlp)
        sp.add_argument("config", help="path to a key = value config file")
        sp.set_defaults(func=_cmd_run)

    ec = sub.add_parser("extension-check",
                        help="half-plane extension Dirichlet-to-Neumann ratios")
    ec.add_argument("--modes", default="1,2,3",
                    help="comma-separated cosine mode numbers (default 1,2,3)")
    ec.add_argument("--height", type=float, default=12.0,
                    help="strip truncation height (default 12)")
    ec.set_defaults(func=_cmd_extension_check)

    vf = sub.add_parser("verify", help="run the acceptance suite")
    vf.add_argument("--level", choices=("quick", "full"), default="quick")
    vf.set_defaults(func=_cmd_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver/diagnostics failures -> exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
