"""Batch command-line front end.

Subcommands build certified profiles, run the curvature verification, run
the collapse experiment, and print the exact obstruction arithmetic.
Outputs are plain CSV/JSON data files; rerunning a command with the same
arguments reproduces them byte for byte except for the timestamp comment
at the head of each CSV.

Exit codes: 0 success; 1 when a verification fails or a construction
claim fails (an infeasible build, or a profile.json whose stored samples
or constants disagree with its rebuild); 2 for usage, input and I/O
errors (bad arguments, a missing file or directory, a profile document of
unrecognized format or version).  :func:`main` is the one place that maps
errors to these codes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import bump, spaces, verify
from .obstruction import GROUPS, TopologicalData, betti_constraints, hitchin_check
from .reports import VerificationReport

__all__ = ["main", "RunConfig"]


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one CLI invocation."""

    subcommand: str
    out: str | None = None
    fmt: str = "csv"
    profile: str | None = None
    grid: int = 1024
    tol: float = 1e-9
    eps: tuple[float, ...] = (1.0, 0.5, 0.25, 0.125)
    seed: int = 0
    rmax: float = 3.0
    neck_slope: float | None = None
    n: int = 800
    negative_control: bool = False
    mass: float = 4.0
    ceiling: float = 64.0
    chi: int = 1
    tau: int = 0
    b3: int | None = None
    group: str = "both"

    def __post_init__(self):
        if self.fmt not in {"csv", "json"}:
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")
        if self.grid < 64:
            raise ValueError("--grid must be at least 64")
        for name in ("tol", "rmax", "n", "mass", "ceiling"):
            if getattr(self, name) <= 0:
                raise ValueError(f"--{name.replace('_', '-')} must be positive")
        if self.neck_slope is not None and self.neck_slope <= 0:
            raise ValueError("--neck-slope must be positive")
        if any(e <= 0 for e in self.eps):
            raise ValueError("--eps values must be positive")


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_reports(reports: list[VerificationReport], cfg: RunConfig,
                   stem: str) -> None:
    path = os.path.join(cfg.out, f"{stem}.{cfg.fmt}")
    if cfg.fmt == "json":
        with open(path, "w") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=2)
            fh.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(f"# generated {_timestamp()}\n")
            fh.write("report,check,value,bound,kind,tol,passed\n")
            for rep in reports:
                for c in rep.checks:
                    fh.write(f"{rep.label},{c.name},{float(c.value)!r},"
                             f"{float(c.bound)!r},{c.kind},{float(c.tol)!r},"
                             f"{int(c.passed)}\n")


def _require_out(cfg: RunConfig) -> None:
    if not cfg.out:
        raise OSError("an output directory is required (--out)")
    if not os.path.isdir(cfg.out):
        raise OSError(f"output directory does not exist: {cfg.out}")


def cmd_build_profile(cfg: RunConfig) -> int:
    _require_out(cfg)
    profile = bump.build_profile(cfg.neck_slope or bump.REFERENCE_NECK_SLOPE,
                                 mass=cfg.mass, ceiling=cfg.ceiling)
    bump.save_profile(profile, os.path.join(cfg.out, "profile.json"))
    report = bump.smoothness_check(profile)
    _write_reports([report], cfg, "smoothness")
    print(report.describe())
    print(f"profile written to {os.path.join(cfg.out, 'profile.json')}")
    return 0 if report.passed else 1


def cmd_verify(cfg: RunConfig) -> int:
    _require_out(cfg)
    if not cfg.profile:
        raise OSError("verify needs --profile pointing at a profile.json")
    profile = bump.load_profile(cfg.profile)
    if cfg.negative_control:
        profile = verify.negative_control(profile)
    reports = [verify.verify_region(profile, region, n_grid=cfg.grid,
                                    tol=cfg.tol)
               for region in verify.standard_regions(profile, cfg.rmax)]
    reports.append(verify.verify_nonneg(profile, r_max=cfg.rmax,
                                        n_grid=cfg.grid, tol=cfg.tol))
    _write_reports(reports, cfg, "verification")
    radii = np.linspace(verify.R_FLOOR, cfg.rmax, cfg.grid)
    verify.write_curve_csv(os.path.join(cfg.out, "ricci_curve.csv"), profile,
                           radii, comment=f"generated {_timestamp()}")
    ok = True
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.label}")
        for check in rep.checks:
            if not check.passed:
                print("  " + check.describe())
        ok = ok and rep.passed
    return 0 if ok else 1


def cmd_collapse(cfg: RunConfig) -> int:
    _require_out(cfg)
    if cfg.profile:
        profile = bump.load_profile(cfg.profile)
    else:
        profile = bump.build_profile(cfg.neck_slope or 0.05)
    result = spaces.collapse_experiment(profile, cfg.eps, n=cfg.n,
                                        seed=cfg.seed, r_outer=cfg.rmax)
    path = os.path.join(cfg.out, "collapse.csv")
    with open(path, "w") as fh:
        fh.write(f"# generated {_timestamp()}, seed {result.seed}\n")
        fh.write("eps,gh_bound,diameter\n")
        for row in result.rows:
            fh.write(f"{row.eps!r},{row.gh_bound!r},{row.diameter!r}\n")
    if cfg.fmt == "json":
        with open(os.path.join(cfg.out, "collapse.json"), "w") as fh:
            json.dump({"seed": result.seed, "n": result.n,
                       "rows": [vars(r) for r in result.rows]}, fh, indent=2)
            fh.write("\n")
    viol = result.gh_violations()
    verdict = "decreasing" if viol == 0 else f"decreasing with {viol} violation(s)"
    print(f"gh_bound column: {verdict}; diameter max/min = "
          f"{result.diameter_ratio():.4f}")
    print(f"table written to {path}")
    return 0


def cmd_obstruction(cfg: RunConfig) -> int:
    if cfg.b3 is not None:
        data = betti_constraints((1, 0, 0, cfg.b3, 0))
    else:
        data = TopologicalData(chi=Fraction(cfg.chi), tau=Fraction(cfg.tau))
    names = list(GROUPS) if cfg.group == "both" else [cfg.group]
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

    def common(p):
        p.add_argument("--out", help="output directory")
        p.add_argument("--format", dest="fmt", default="csv",
                       choices=["csv", "json"])
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--grid", type=int, default=1024)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--rmax", type=float, default=3.0)
        p.add_argument("--neck-slope", dest="neck_slope", type=float)

    p = sub.add_parser("build-profile", help="construct and certify a profile")
    common(p)
    p.add_argument("--mass", type=float, default=4.0)
    p.add_argument("--ceiling", type=float, default=64.0)

    p = sub.add_parser("verify", help="run the curvature verification")
    common(p)
    p.add_argument("--profile", help="path to a profile.json")
    p.add_argument("--negative-control", action="store_true",
                   help="double the fiber profile before verifying")

    p = sub.add_parser("collapse", help="run the collapse experiment")
    common(p)
    p.add_argument("--profile", help="path to a profile.json")
    p.add_argument("--eps", default="1,0.5,0.25,0.125",
                   help="comma-separated decreasing scale factors")
    p.add_argument("--n", type=int, default=800)
    p.set_defaults(rmax=8.0)

    p = sub.add_parser("obstruction", help="exact-rational obstruction report")
    p.add_argument("--chi", type=int, default=1)
    p.add_argument("--tau", type=int, default=0)
    p.add_argument("--b3", type=int)
    p.add_argument("--group", default="both",
                   choices=["both", *GROUPS.keys()])
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {}
    for name in ("out", "fmt", "profile", "grid", "tol", "seed", "rmax",
                 "neck_slope", "n", "negative_control", "mass", "ceiling",
                 "chi", "tau", "b3", "group"):
        if hasattr(args, name) and getattr(args, name) is not None:
            fields[name] = getattr(args, name)
    if hasattr(args, "eps"):
        try:
            eps = tuple(float(x) for x in str(args.eps).split(",") if x.strip())
        except ValueError as exc:
            raise ValueError(f"bad --eps list: {exc}") from None
        if not eps:
            raise ValueError("--eps list is empty")
        fields["eps"] = eps
    return RunConfig(subcommand=args.subcommand, **fields)


_COMMANDS = {
    "build-profile": cmd_build_profile,
    "verify": cmd_verify,
    "collapse": cmd_collapse,
    "obstruction": cmd_obstruction,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[args.subcommand](cfg)
    except bump.ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
