"""Region-by-region certification of nonnegative Ricci curvature.

The construction's curvature argument splits the radial line at
r1 + 1/16, r1 + 3/16 and r1 + 1/4; each piece carries its own declared
bounds and auxiliary inequalities.  Verification here is sampling plus
endpoint refinement, not interval arithmetic: a report certifies "no grid
violation at tolerance tol", and says so explicitly in its label.

Bounds involving the reference constants (e.g. 2 - 2*exp(-200)) collapse
to their representable 64-bit values; each check carries the symbolic
expression alongside the number actually compared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import ricci_curve
from .profiles import ProfilePair, scale_phi
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
    """One radial piece of the verification, labelled Part1..Part4."""

    label: str
    lo: float
    hi: float

    def __post_init__(self):
        if self.label not in {"Part1", "Part2", "Part3", "Part4"}:
            raise ValueError(f"unknown region label {self.label!r}")
        if not self.lo < self.hi:
            raise ValueError("region must have lo < hi")


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


# endpoint bisections per side before the refinement stops
_MAX_BISECTIONS = 48


def _refined_radii(profile: ProfilePair, lo: float, hi: float, n_grid: int,
                   tol: float) -> np.ndarray:
    """Base grid plus bisection refinement toward both endpoints.

    Near each endpoint the first subinterval is halved until consecutive
    Ricci samples move by less than tol, so boundary minima are not missed
    by the uniform grid.
    """
    base = np.linspace(lo, hi, n_grid)
    extras = []
    for anchor, direction in ((lo, +1.0), (hi, -1.0)):
        d = (hi - lo) / (n_grid - 1)
        prev = ricci_curve(profile, anchor + direction * d)[:, 0]
        for _ in range(_MAX_BISECTIONS):
            d *= 0.5
            pt = anchor + direction * d
            cur = ricci_curve(profile, pt)[:, 0]
            extras.append(pt)
            if np.max(np.abs(cur - prev)) < tol:
                break
            prev = cur
    return np.unique(np.concatenate([base, np.asarray(extras)]))


def _entry_checks(vals: np.ndarray, bounds: list, tol: float) -> list[BoundCheck]:
    """One ``min_ge`` check per Ricci entry; ``vals`` is ``ricci_curve`` on the grid."""
    minima = dict(zip(ENTRY_NAMES, vals.min(axis=1)))
    return [BoundCheck(name=f"{name}_min", value=minima[name], bound=bound,
                       kind="min_ge", tol=tol, bound_expr=expr)
            for name, bound, expr in bounds]


def _declared_bounds(region: Region, profile: ProfilePair) -> list:
    """Per-region lower bounds on the Ricci minima (entry, bound, symbolic)."""
    specific = {}
    if region.label == "Part1":
        specific["r22"] = (2.0, "2")
        specific["r33"] = (2.0, "2")
    have_constants = (profile.r1 is not None and profile.delta is not None
                      and profile.neck_slope is not None)
    if region.label == "Part2" and have_constants:
        slack = 192.0 * profile.delta + 2.0 * profile.neck_slope / profile.r1
        specific["r00"] = (16.0 - slack, "16 - (192*delta + 2*neck_slope/r1)")
    if region.label == "Part4" and have_constants:
        c2 = profile.neck_slope ** 2
        for name in ("r11", "r22", "r33"):
            specific[name] = (2.0 - 2.0 * c2, "2 - 2*neck_slope^2")
    return [(name, *specific.get(name, (0.0, "0"))) for name in ENTRY_NAMES]


def _proof_quantity_checks(region: Region, profile: ProfilePair,
                           radii: np.ndarray, tol: float) -> list[BoundCheck]:
    """The auxiliary inequalities the curvature argument leans on, sampled."""
    if profile.r1 is None or profile.delta is None:
        return []
    checks = []
    phi2 = profile.phi(radii, 2)
    if region.label == "Part2":
        rho2 = profile.rho(radii, 2)
        checks.append(BoundCheck("rho''_min", float(rho2.min()), 0.0,
                                 "min_ge", tol))
        checks.append(BoundCheck("rho''_max", float(rho2.max()),
                                 64.0 * profile.delta, "max_le", tol,
                                 bound_expr="64*delta"))
        checks.append(BoundCheck("phi''_max", float(phi2.max()), -16.0,
                                 "max_le", tol))
    if region.label == "Part3":
        phi1 = profile.phi(radii, 1)
        phi3 = profile.phi(radii, 3)
        checks.append(BoundCheck("phi'''_min", float(phi3.min()), 0.0,
                                 "min_ge", tol))
        checks.append(BoundCheck("phi'_min", float(phi1.min()), 0.0,
                                 "min_ge", tol))
        checks.append(BoundCheck("phi' + phi''/16 max",
                                 float((phi1 + phi2 / 16.0).max()), 0.0,
                                 "max_le", tol, bound_expr="phi' <= -phi''/16"))
    return checks


def verify_region(profile: ProfilePair, region: Region, n_grid: int = 1024,
                  tol: float = 1e-9) -> VerificationReport:
    """Check one region's declared curvature bounds on a refined grid.

    The grid starts at max(lo, 1e-6): the Part1 formulas extend
    continuously to the axis but the frame itself degenerates at r = 0.
    """
    if n_grid < 64:
        raise ValueError("n_grid must be at least 64")
    lo = max(region.lo, R_FLOOR)
    radii = _refined_radii(profile, lo, region.hi, n_grid, tol)
    vals = ricci_curve(profile, radii)
    checks = _entry_checks(vals, _declared_bounds(region, profile), tol)
    if region.label == "Part4":
        worst_r00 = float(np.abs(vals[0]).max())
        checks.append(BoundCheck("r00_flat", worst_r00, 0.0, "match", 1e-10,
                                 bound_expr="r00 == 0 on the tail"))
    checks.extend(_proof_quantity_checks(region, profile, radii, tol))
    return VerificationReport(label=f"{region.label} [{lo:.6g}, {region.hi:.6g}]",
                              grid_size=len(radii), tol=tol,
                              checks=tuple(checks))


def verify_nonneg(profile: ProfilePair, r_max: float = 3.0, n_grid: int = 4096,
                  tol: float = 1e-9) -> VerificationReport:
    """Global sweep: every Ricci entry nonnegative on [1e-6, r_max]."""
    if n_grid < 64:
        raise ValueError("n_grid must be at least 64")
    radii = _refined_radii(profile, R_FLOOR, r_max, n_grid, tol)
    checks = _entry_checks(ricci_curve(profile, radii),
                           [(n, 0.0, "0") for n in ENTRY_NAMES], tol)
    return VerificationReport(label=f"nonnegativity sweep [1e-06, {r_max:g}]",
                              grid_size=len(radii), tol=tol,
                              checks=tuple(checks))


def negative_control(profile: ProfilePair) -> ProfilePair:
    """The doubled-fiber profile (phi'(0) forced to 8): must fail verification."""
    return scale_phi(profile, 2.0)
