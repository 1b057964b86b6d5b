"""Batch command-line front end.

Subcommands build certified profiles, run the curvature verification, run
the collapse experiment, and print the exact obstruction arithmetic.
Outputs are plain CSV/JSON data files; rerunning a command with the same
arguments reproduces them byte for byte except for the timestamp comment
at the head of each CSV.

The parser is the one declaration of every flag, its type and its
default; each subcommand takes only the flags it reads and rejects any
other.  :func:`_check_args` makes the input checks that neither argparse
nor the library makes.

Exit codes: 0 success; 1 when a verification fails or a construction
claim fails (an infeasible build, or a profile.json whose stored samples
or constants disagree with its rebuild); 2 for usage, input and I/O
errors (bad or unknown arguments, a missing file or directory, a profile
document of unrecognized format or version, or with missing, extra or
non-numeric keys); 141 (128 + SIGPIPE) when the reader of standard
output closes it early, after every artifact has been written.
:func:`main` is the one place that maps errors to these codes.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import bump, verify
from .frame import ricci_curve
from .obstruction import GROUPS, TopologicalData, betti_constraints, hitchin_check
from .reports import VerificationReport

__all__ = ["main"]


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_csv(path: str, header: list[str], rows, note: str = "") -> None:
    """A CSV headed by a ``# generated <timestamp>[, note]`` comment line.

    ``csv`` writes a float with ``str``, whose shortest digits round-trip exactly.
    """
    with open(path, "w", newline="") as fh:
        fh.write(f"# generated {_timestamp()}{', ' + note if note else ''}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_reports(reports: list[VerificationReport], args: argparse.Namespace,
                   stem: str) -> None:
    path = os.path.join(args.out, f"{stem}.{args.format}")
    if args.format == "csv":
        header = ["report", "check", "value", "bound", "kind", "tol", "passed"]
        _write_csv(path, header,
                   ([rep.label, c.name, float(c.value), float(c.bound), c.kind,
                     float(c.tol), int(c.passed)]
                    for rep in reports for c in rep.checks))
        return
    with open(path, "w") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=2)
        fh.write("\n")


def cmd_build_profile(args: argparse.Namespace) -> int:
    profile = bump.build_profile(args.neck_slope, mass=args.mass,
                                 ceiling=args.ceiling)
    bump.save_profile(profile, os.path.join(args.out, "profile.json"))
    report = bump.smoothness_check(profile)
    _write_reports([report], args, "smoothness")
    print(report.describe())
    print(f"profile written to {os.path.join(args.out, 'profile.json')}")
    return 0 if report.passed else 1


def cmd_verify(args: argparse.Namespace) -> int:
    profile = bump.load_profile(args.profile)
    if args.negative_control:
        profile = verify.negative_control(profile)
    reports = [verify.verify_region(profile, region, n_grid=args.grid,
                                    tol=args.tol)
               for region in verify.standard_regions(profile, args.rmax)]
    reports.append(verify.verify_nonneg(profile, r_max=args.rmax,
                                        n_grid=args.grid, tol=args.tol))
    _write_reports(reports, args, "verification")
    radii = np.linspace(verify.R_FLOOR, args.rmax, args.grid)
    curve = ricci_curve(profile, radii)
    _write_csv(os.path.join(args.out, "ricci_curve.csv"), ["r", *verify.ENTRY_NAMES],
               np.column_stack([radii, curve.T]).tolist())
    ok = True
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.label}")
        for check in rep.checks:
            if not check.passed:
                print("  " + check.describe())
        ok = ok and rep.passed
    return 0 if ok else 1


def cmd_collapse(args: argparse.Namespace) -> int:
    from . import spaces  # only collapse needs scipy; the other commands skip its import

    if args.profile:
        profile = bump.load_profile(args.profile)
    else:
        profile = bump.build_profile(args.neck_slope)
    result = spaces.collapse_experiment(profile, args.eps, n=args.n,
                                        seed=args.seed, r_outer=args.rmax)
    path = os.path.join(args.out, "collapse.csv")
    _write_csv(path, ["eps", "gh_bound", "diameter"],
               ([row.eps, row.gh_bound, row.diameter] for row in result.rows),
               note=f"seed {result.seed}")
    if args.format == "json":
        with open(os.path.join(args.out, "collapse.json"), "w") as fh:
            json.dump({"seed": result.seed, "n": result.n,
                       "rows": [vars(r) for r in result.rows]}, fh, indent=2)
            fh.write("\n")
    viol = result.gh_violations()
    verdict = "decreasing" if viol == 0 else f"decreasing with {viol} violation(s)"
    print(f"gh_bound column: {verdict}; diameter max/min = "
          f"{result.diameter_ratio():.4f}")
    print(f"table written to {path}")
    return 0


def cmd_obstruction(args: argparse.Namespace) -> int:
    if args.b3 is not None:
        data = betti_constraints((1, 0, 0, args.b3, 0))
    else:
        data = TopologicalData(chi=Fraction(args.chi), tau=Fraction(args.tau))
    names = list(GROUPS) if args.group == "both" else [args.group]
    for name in names:
        group = GROUPS[name]
        verdict = hitchin_check(data, group)
        print(f"{name} (order {group.order}, |eta| = {group.eta_magnitude}): "
              f"{verdict.describe()}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conekit",
        description="Construct, certify and collapse the warped cone metrics.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", required=True, help="output directory")
    output.add_argument("--format", default="csv", choices=["csv", "json"])

    p = sub.add_parser("build-profile", parents=[output],
                       help="construct and certify a profile")
    p.add_argument("--neck-slope", type=float, default=bump.REFERENCE_NECK_SLOPE)
    p.add_argument("--mass", type=float, default=4.0)
    p.add_argument("--ceiling", type=float, default=64.0)
    p.set_defaults(command=cmd_build_profile)

    p = sub.add_parser("verify", parents=[output],
                       help="run the curvature verification")
    p.add_argument("--profile", required=True, help="path to a profile.json")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--rmax", type=float, default=3.0)
    p.add_argument("--negative-control", action="store_true",
                   help="double the fiber profile before verifying")
    p.set_defaults(command=cmd_verify)

    p = sub.add_parser("collapse", parents=[output],
                       help="run the collapse experiment")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--profile", help="path to a profile.json")
    source.add_argument("--neck-slope", type=float, default=0.05)
    p.add_argument("--eps", default="1,0.5,0.25,0.125",
                   help="comma-separated decreasing scale factors")
    p.add_argument("--n", type=int, default=800)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rmax", type=float, default=8.0)
    p.set_defaults(command=cmd_collapse)

    p = sub.add_parser("obstruction", help="exact-rational obstruction report")
    p.add_argument("--chi", type=int, default=1)
    p.add_argument("--tau", type=int, default=0)
    p.add_argument("--b3", type=int)
    p.add_argument("--group", default="both",
                   choices=["both", *GROUPS.keys()])
    p.set_defaults(command=cmd_obstruction)
    return parser


def _check_args(args: argparse.Namespace) -> None:
    """The input checks argparse and the library leave to the CLI.

    Raises ``ValueError``/``OSError`` before any artifact is written;
    parses ``--eps`` into a tuple (its values are checked by the library).
    """
    if getattr(args, "grid", 64) < 64:
        raise ValueError("--grid must be at least 64")
    for name in ("tol", "rmax", "neck_slope", "mass", "ceiling"):
        if not 0 < getattr(args, name, 1.0) < float("inf"):  # NaN fails too
            raise ValueError(f"--{name.replace('_', '-')} must be positive and finite")
    if hasattr(args, "eps"):
        try:
            args.eps = tuple(float(x) for x in args.eps.split(",") if x.strip())
        except ValueError as exc:
            raise ValueError(f"bad --eps list: {exc}") from None
    if hasattr(args, "out") and not os.path.isdir(args.out):
        raise OSError(f"output directory does not exist: {args.out}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_args(args)
        code = args.command(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away; send the unflushed rest to devnull so the
        # interpreter's own flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except bump.ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
