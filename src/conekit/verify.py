"""Region-by-region certification of nonnegative Ricci curvature.

The construction's curvature argument splits the radial line at the
build's breakpoints, r1 + 1/16, r1 + 3/16 and r1 + 1/4, read from
``bump.breakpoints``; each piece carries its own declared
bounds and auxiliary inequalities; the nonnegativity sweep is one more
region, the whole line with every bound 0.  Verification here is sampling,
not interval arithmetic: one builder, ``_report``, evaluates a region's
fixed grid, a uniform grid plus 48 halvings of its first step toward each
endpoint, in one ``ricci_curve`` call, and certifies "no grid violation at
tolerance tol" on it, as its label says.  tol sets only the comparison.

Every check follows the one rule of ``reports.BoundCheck.sampled``, which
the construction claims follow too: a quantity sampled on the grid is
reduced by its kind (minimum, maximum, or largest magnitude for a
``match``) and compared with its bound.  Part2 and Part4 read the
construction constants (r1, delta, neck_slope), and a profile without
them is rejected for those labels.  Bounds involving the reference
constants (e.g. 16 - 192*delta) collapse to their representable 64-bit
values; each check carries the symbolic expression alongside the number
actually compared.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .bump import CEILING, FLOOR, breakpoints
from .frame import ricci_curve
from .profiles import ProfilePair
from .reports import BoundCheck, VerificationReport

__all__ = [
    "Region",
    "standard_regions",
    "verify_region",
    "verify_nonneg",
    "negative_control",
]

ENTRY_NAMES = ("r00", "r11", "r22", "r33")
R_FLOOR = 1e-6  # the frame degenerates at r = 0; evaluation starts here


@dataclass(frozen=True)
class Region:
    """One radial piece of the verification, Part1..Part4, or the whole line
    of the "nonnegativity sweep"; its grid starts at max(lo, R_FLOOR)."""

    label: str
    lo: float
    hi: float

    def __post_init__(self):
        if self.label not in {"Part1", "Part2", "Part3", "Part4", "nonnegativity sweep"}:
            raise ValueError(f"unknown region label {self.label!r}")
        if not (self.lo < self.hi and R_FLOOR < self.hi < np.inf):  # NaN fails too
            raise ValueError(f"region must have lo < hi and {R_FLOOR:g} < hi < inf, "
                             f"got [{self.lo!r}, {self.hi!r}]")


def standard_regions(profile: ProfilePair, r_max: float = 3.0) -> tuple[Region, ...]:
    """The four regions tiling [0, r_max] with shared endpoints, cut at the
    profile's ``breakpoints``."""
    if profile.r1 is None:
        raise ValueError("standard regions need a constructed profile (r1)")
    cuts = (0.0, *breakpoints(profile.r1), r_max)
    if r_max <= cuts[3]:
        raise ValueError("r_max must exceed r1 + 1/4")
    labels = ("Part1", "Part2", "Part3", "Part4")
    return tuple(Region(lab, a, b)
                 for lab, a, b in zip(labels, cuts[:-1], cuts[1:]))


# halvings of the first grid step toward each endpoint
_HALVINGS = 48


def _grid(lo: float, hi: float, n_grid: int) -> np.ndarray:
    """``n_grid`` uniform radii on [lo, hi] plus ``_HALVINGS`` halvings of
    the first step toward each endpoint, so boundary minima are not missed
    by the uniform grid."""
    halvings = 0.5 ** np.arange(1, _HALVINGS + 1)
    step = (hi - lo) / (n_grid - 1)
    return np.unique(np.concatenate([np.linspace(lo, hi, n_grid),
                                     lo + step * halvings, hi - step * halvings]))


def _checks(region: Region, profile: ProfilePair, radii: np.ndarray,
            vals: np.ndarray, tol: float) -> list[BoundCheck]:
    """Every check of one report, each a sampled quantity against its bound:
    the four Ricci minima, then the quantities the label's piece of the
    curvature argument leans on.  A derivative is evaluated only under a
    label that checks it."""
    check = functools.partial(BoundCheck.sampled, tol=tol)
    bounds = dict.fromkeys(ENTRY_NAMES, (0.0, "0"))
    extra = []
    if region.label == "Part1":
        bounds["r22"] = bounds["r33"] = (2.0, "2")
    elif region.label == "Part2":
        # -3 rho''/rho >= -3*CEILING*delta and -phi''/phi >= FLOOR here
        slack = 3.0 * CEILING * profile.delta + 2.0 * profile.neck_slope / profile.r1
        bounds["r00"] = (FLOOR - slack, "16 - (192*delta + 2*neck_slope/r1)")
        rho2 = profile.rho(radii, 2)
        extra = [check("rho''_min", rho2, 0.0),
                 check("rho''_max", rho2, CEILING * profile.delta, kind="max_le",
                       bound_expr="64*delta"),
                 check("phi''_max", profile.phi(radii, 2), -FLOOR, kind="max_le")]
    elif region.label == "Part3":
        phi1 = profile.phi(radii, 1)
        extra = [check("phi'''_min", profile.phi(radii, 3), 0.0),
                 check("phi'_min", phi1, 0.0),
                 check("phi' + phi''/16 max", phi1 + profile.phi(radii, 2) / 16.0, 0.0,
                       kind="max_le", bound_expr="phi' <= -phi''/16")]
    elif region.label == "Part4":
        # on the tail rho'' = 0, rho' = c and phi = 1, so r00 = 0 and
        # r11 = r22 = r33 = (2 - 2c^2)/rho^2 exactly
        tail = profile.rho(radii) ** 2 * vals[1:] - (2.0 - 2.0 * profile.neck_slope ** 2)
        extra = [check("r00_flat", vals[0], 0.0, kind="match", tol=1e-10,
                       bound_expr="r00 == 0 on the tail"),
                 check("r_ii_tail", tail, 0.0, kind="match", tol=1e-10,
                       bound_expr="rho^2*r_ii == 2 - 2*neck_slope^2 on the tail")]
    minima = [check(f"{name}_min", row, bound, bound_expr=expr)
              for name, row, (bound, expr) in zip(ENTRY_NAMES, vals, bounds.values())]
    return minima + extra


def _report(profile: ProfilePair, region: Region, n_grid: int,
            tol: float) -> VerificationReport:
    """Check one region's declared curvature bounds and per-label checks.

    The grid starts at max(lo, R_FLOOR): the Part1 formulas extend
    continuously to the axis but the frame itself degenerates at r = 0.
    """
    if n_grid < 64:
        raise ValueError("n_grid must be at least 64")
    if not 0 < tol < np.inf:  # NaN fails too
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if (region.label in ("Part2", "Part4")
            and None in (profile.r1, profile.delta, profile.neck_slope)):
        raise ValueError(f"{region.label} needs a constructed profile (r1, delta, neck_slope)")
    lo = max(region.lo, R_FLOOR)
    radii = _grid(lo, region.hi, n_grid)
    checks = _checks(region, profile, radii, ricci_curve(profile, radii), tol)
    return VerificationReport(label=f"{region.label} [{lo:.6g}, {region.hi:.6g}]",
                              grid_size=len(radii), checks=tuple(checks))


def verify_region(profile: ProfilePair, region: Region, n_grid: int = 1024,
                  tol: float = 1e-9) -> VerificationReport:
    """Check one region's declared curvature bounds on its grid."""
    return _report(profile, region, n_grid, tol)


def verify_nonneg(profile: ProfilePair, r_max: float = 3.0, n_grid: int = 4096,
                  tol: float = 1e-9) -> VerificationReport:
    """Global sweep: every Ricci entry nonnegative on [R_FLOOR, r_max]."""
    return _report(profile, Region("nonnegativity sweep", 0.0, r_max), n_grid, tol)


def negative_control(profile: ProfilePair) -> ProfilePair:
    """The doubled-fiber profile 2*phi (phi'(0) forced to 8): must fail verification."""
    return replace(profile, phi=profile.phi.scaled(2.0))
