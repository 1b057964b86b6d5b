"""Batch command-line front end.

Subcommands build certified profiles, run the curvature verification, run
the collapse experiment, and print the exact obstruction arithmetic.
``verify`` and ``collapse`` build their curvature reports with one helper
and print every report with another, so one rule, kept in ``reports``,
decides each PASS/FAIL line; collapse adds the report of its own gates and
writes all six as ``collapse_checks``.
Each table of checks or of collapse rows is written as ``stem.csv`` and
``stem.json``, the JSON also keeping what the CSV has no column for.
Rerunning a command with the same arguments reproduces every file byte
for byte except for the timestamp comment heading each CSV.

The parser is the one declaration of every flag, its type and its
default; each subcommand takes only the flags it reads and rejects any
other.  :func:`_check_args` makes the input checks that neither argparse
nor the library makes.

Importing this module loads no numpy: it holds argparse, the exact
``obstruction`` arithmetic and the numpy-free ``reports`` types.  Each
command imports the numeric layers it runs when it is dispatched, so
``obstruction``, ``--help`` and usage errors never import numpy;
``build-profile`` and ``verify`` import numpy but not scipy, and only
``collapse`` imports scipy (through ``spaces``).  The one default that
lives in a numeric layer, build-profile's ``--neck-slope``, is read from
``bump.REFERENCE_NECK_SLOPE`` inside the command.

Exit codes: 0 success; 1 when a check of ``verify`` or ``collapse`` fails
(the tables are still written) or a construction claim fails (an
infeasible build, or a profile.json whose stored grid, samples or
constants disagree with its rebuild); 2 for usage, input and I/O errors
(bad or unknown arguments, a missing file or directory, a profile
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
from dataclasses import asdict, astuple, fields
from datetime import datetime, timezone

from .obstruction import GROUPS, TopologicalData, betti_constraints, hitchin_check
from .reports import ConstructionError, VerificationReport

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


def _write_table(out: str, stem: str, header: list[str], rows, doc, note: str = "") -> str:
    """``header`` and ``rows`` in ``out/stem.csv``, ``doc`` in ``out/stem.json``; the CSV path."""
    path = os.path.join(out, f"{stem}.csv")
    _write_csv(path, header, rows, note)
    with open(os.path.join(out, f"{stem}.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return path


def _write_reports(reports: list[VerificationReport], out: str, stem: str) -> None:
    """One CSV row per check in ``stem.csv``; the reports whole in ``stem.json``."""
    header = ["report", "check", "value", "bound", "kind", "tol", "passed"]
    _write_table(out, stem, header,
                 ([rep.label, c.name, float(c.value), float(c.bound), c.kind,
                   float(c.tol), int(c.passed)]
                  for rep in reports for c in rep.checks),
                 [r.to_dict() for r in reports])


def cmd_build_profile(args: argparse.Namespace) -> int:
    from . import bump

    slope = bump.REFERENCE_NECK_SLOPE if args.neck_slope is None else args.neck_slope
    profile = bump.build_profile(slope)
    bump.save_profile(profile, os.path.join(args.out, "profile.json"))
    report = bump.smoothness_check(profile)
    _write_reports([report], args.out, "smoothness")
    print(report.describe())
    print(f"profile written to {os.path.join(args.out, 'profile.json')}")
    return 0 if report.passed else 1


def _curvature_reports(profile, rmax: float, grid: int) -> list[VerificationReport]:
    """The four ``standard_regions`` reports of ``profile`` on [0, rmax], then the sweep."""
    from . import verify

    reports = [verify.verify_region(profile, region, n_grid=grid)
               for region in verify.standard_regions(profile, rmax)]
    reports.append(verify.verify_nonneg(profile, r_max=rmax, n_grid=grid))
    return reports


def _print_reports(reports: list[VerificationReport]) -> int:
    """A PASS/FAIL line per report, each failed check under it; the exit code."""
    for rep in reports:
        print(f"{'PASS' if rep.passed else 'FAIL'} {rep.label}")
        for check in rep.checks:
            if not check.passed:
                print("  " + check.describe())
    return 0 if all(rep.passed for rep in reports) else 1


def cmd_verify(args: argparse.Namespace) -> int:
    import numpy as np

    from . import bump, verify
    from .frame import ricci_curve

    profile = bump.load_profile(args.profile)
    if args.negative_control:
        profile = verify.negative_control(profile)
    reports = _curvature_reports(profile, args.rmax, args.grid)
    _write_reports(reports, args.out, "verification")
    radii = np.linspace(verify.R_FLOOR, args.rmax, args.grid)
    curve = ricci_curve(profile, radii)
    _write_csv(os.path.join(args.out, "ricci_curve.csv"), ["r", *verify.ENTRY_NAMES],
               np.column_stack([radii, curve.T]).tolist())
    return _print_reports(reports)


def cmd_collapse(args: argparse.Namespace) -> int:
    from . import bump, spaces

    if args.profile:
        profile = bump.load_profile(args.profile)
    else:
        profile = bump.build_profile(args.neck_slope)
    rows, report = spaces.collapse_experiment(profile, args.eps, n=args.n, seed=args.seed,
                                              r_outer=args.rmax)
    # verify's checks at its default grid: a slope where Ric >= 0 fails is
    # flagged by failed checks, not rejected. Run after the collapse, so
    # verify is not yet imported when the collapse peaks in memory
    reports = [*_curvature_reports(profile, args.rmax, 1024), report]
    path = _write_table(args.out, "collapse", [f.name for f in fields(spaces.CollapseRow)],
                        map(astuple, rows),
                        {"seed": args.seed, "n": args.n, "rows": [asdict(r) for r in rows]},
                        note=f"seed {args.seed}")
    _write_reports(reports, args.out, "collapse_checks")
    code = _print_reports(reports)
    print(f"table written to {path}")
    return code


def cmd_obstruction(args: argparse.Namespace) -> int:
    if args.b3 is not None:
        data = betti_constraints(args.b3)
    else:
        data = TopologicalData(chi=1 if args.chi is None else args.chi, tau=args.tau or 0)
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

    p = sub.add_parser("build-profile", parents=[output],
                       help="construct and certify a profile")
    p.add_argument("--neck-slope", type=float)  # None: bump.REFERENCE_NECK_SLOPE
    p.set_defaults(command=cmd_build_profile)

    p = sub.add_parser("verify", parents=[output],
                       help="run the curvature verification")
    p.add_argument("--profile", required=True, help="path to a profile.json")
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
    p.add_argument("--chi", type=int, help="Euler characteristic (default 1)")
    p.add_argument("--tau", type=int, help="signature (default 0)")
    p.add_argument("--b3", type=int,
                   help="third Betti number of the filling; sets chi = 1 - b3 and tau = 0")
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
    for name in ("rmax", "neck_slope"):
        value = getattr(args, name, None)
        if value is not None and not 0 < value < float("inf"):  # NaN fails too
            raise ValueError(f"--{name.replace('_', '-')} must be positive and finite")
    if getattr(args, "b3", None) is not None and (args.chi, args.tau) != (None, None):
        raise ValueError("--b3 fixes chi and tau; it cannot be combined with --chi or --tau")
    if hasattr(args, "eps"):
        try:
            args.eps = tuple(float(x) for x in args.eps.split(","))
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
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
