"""Region-by-region certification of nonnegative Ricci curvature.

The construction's curvature argument splits the radial line at
r1 + 1/16, r1 + 3/16 and r1 + 1/4; each piece carries its own declared
bounds and auxiliary inequalities; the nonnegativity sweep is one more
region, the whole line with every bound 0.  Verification here is sampling,
not interval arithmetic: one builder, ``_report``, evaluates a region's
fixed grid, a uniform grid plus 48 halvings of its first step toward each
endpoint, in one ``ricci_curve`` call, and certifies "no grid violation at
tolerance tol" on it, as its label says.  tol sets only the comparison.

Bounds involving the reference constants (e.g. 2 - 2*exp(-200)) collapse
to their representable 64-bit values; each check carries the symbolic
expression alongside the number actually compared.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bump import CEILING, FLOOR
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
    """The four regions tiling [0, r_max] with shared endpoints."""
    if profile.r1 is None:
        raise ValueError("standard regions need a constructed profile (r1)")
    r1 = profile.r1
    cuts = (0.0, r1 + 1.0 / 16.0, r1 + 3.0 / 16.0, r1 + 0.25, r_max)
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


def _declared_bounds(region: Region, profile: ProfilePair) -> list:
    """Per-region lower bounds on the Ricci minima (entry, bound, symbolic)."""
    specific = {}
    if region.label == "Part1":
        specific["r22"] = (2.0, "2")
        specific["r33"] = (2.0, "2")
    have_constants = (profile.r1 is not None and profile.delta is not None
                      and profile.neck_slope is not None)
    if region.label == "Part2" and have_constants:
        # -3 rho''/rho >= -3*CEILING*delta and -phi''/phi >= FLOOR here
        slack = 3.0 * CEILING * profile.delta + 2.0 * profile.neck_slope / profile.r1
        specific["r00"] = (FLOOR - slack, "16 - (192*delta + 2*neck_slope/r1)")
    if region.label == "Part4" and have_constants:
        c2 = profile.neck_slope ** 2
        for name in ("r11", "r22", "r33"):
            specific[name] = (2.0 - 2.0 * c2, "2 - 2*neck_slope^2")
    return [(name, *specific.get(name, (0.0, "0"))) for name in ENTRY_NAMES]


def _proof_quantity_checks(region: Region, profile: ProfilePair, radii: np.ndarray,
                           vals: np.ndarray, tol: float) -> list[BoundCheck]:
    """The per-label checks beside the Ricci minima, sampled: Part4's flat
    radial entry and the auxiliary inequalities the curvature argument
    leans on.  A derivative is evaluated only under a label that checks it."""
    if region.label == "Part4":
        return [BoundCheck("r00_flat", float(np.abs(vals[0]).max()), 0.0, "match", 1e-10,
                           bound_expr="r00 == 0 on the tail")]
    if profile.r1 is None or profile.delta is None:
        return []
    if region.label == "Part2":
        rho2 = profile.rho(radii, 2)
        return [BoundCheck("rho''_min", float(rho2.min()), 0.0, "min_ge", tol),
                BoundCheck("rho''_max", float(rho2.max()), CEILING * profile.delta,
                           "max_le", tol, bound_expr="64*delta"),
                BoundCheck("phi''_max", float(profile.phi(radii, 2).max()), -FLOOR,
                           "max_le", tol)]
    if region.label == "Part3":
        phi1 = profile.phi(radii, 1)
        return [BoundCheck("phi'''_min", float(profile.phi(radii, 3).min()), 0.0,
                           "min_ge", tol),
                BoundCheck("phi'_min", float(phi1.min()), 0.0, "min_ge", tol),
                BoundCheck("phi' + phi''/16 max",
                           float((phi1 + profile.phi(radii, 2) / 16.0).max()), 0.0,
                           "max_le", tol, bound_expr="phi' <= -phi''/16")]
    return []


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
    lo = max(region.lo, R_FLOOR)
    radii = _grid(lo, region.hi, n_grid)
    vals = ricci_curve(profile, radii)
    minima = dict(zip(ENTRY_NAMES, vals.min(axis=1)))
    checks = [BoundCheck(name=f"{name}_min", value=minima[name], bound=bound,
                         kind="min_ge", tol=tol, bound_expr=expr)
              for name, bound, expr in _declared_bounds(region, profile)]
    checks += _proof_quantity_checks(region, profile, radii, vals, tol)
    return VerificationReport(label=f"{region.label} [{lo:.6g}, {region.hi:.6g}]",
                              grid_size=len(radii), tol=tol, checks=tuple(checks))


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
