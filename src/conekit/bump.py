"""Construction of the cutoff bump and the warped profiles by quadrature.

The radial profiles are defined through iterated integrals of a compactly
supported C-infinity bump ``eta``:

    phi(r) = 4r - int_0^r int_0^{t - r1} eta(s) ds dt
    rho(r) = 1 + delta * int_0^r int_0^t eta(2s - 1/8 - 2*r1) ds dt

with ``r1 = (1/4) * int (1/4 - s) eta(s) ds`` and ``delta`` normalized so
the tail slope of rho equals the requested neck slope.  All integrals are
evaluated from precomputed Gauss-Legendre tables whose panels are aligned
to the bump's segment boundaries; first and second derivatives of the
profiles are closed-form (the integrands themselves), third derivatives
come from the closed-form ``eta'``.

Every property claimed of the construction is certified on a grid at build
time; a failed claim raises :class:`ConstructionError` naming the claim.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .profiles import ProfilePair, RadialFunction
from .reports import BoundCheck, VerificationReport

__all__ = [
    "ConstructionError",
    "BumpSpec",
    "QuadratureTable",
    "make_eta",
    "idealized_step_bump",
    "build_table",
    "compute_r1",
    "make_phi",
    "make_rho",
    "build_profile",
    "smoothness_check",
    "save_profile",
    "load_profile",
]

REFERENCE_NECK_SLOPE = math.exp(-100.0)
_SUPPORT = (0.0, 0.25)
# where eta is claimed to stay above its floor, and to be non-increasing
_FLOOR_WINDOW = (1.0 / 16.0, 3.0 / 16.0)
_TAIL_WINDOW = (0.125, 0.25)
# grid sizes of the certification sweeps: the bump over its support, the
# profiles over each claimed interval
_ETA_CHECKS = 4001
_PROFILE_CHECKS = 513
# Gauss-Legendre order and panels per segment of the one-off bump integrals
_SEGMENT_ORDER = 24
_SEGMENT_PANELS = 8


class ConstructionError(ValueError):
    """A certified construction claim failed (message names the claim)."""


# ---------------------------------------------------------------------------
# C-infinity smoothstep
# ---------------------------------------------------------------------------

def _exp_ramp(x):
    """exp(-1/x) for x > 0, identically 0 for x <= 0 (all derivatives vanish at 0)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 1e-150  # below this exp(-1/x) underflows to 0 anyway
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-1.0 / x[pos])
    return out


def _exp_ramp_prime(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 1e-150
    out[pos] = np.exp(-1.0 / x[pos]) / x[pos] ** 2
    return out


def smooth_step(x):
    """C-infinity step: 0 for x <= 0, 1 for x >= 1, strictly rising between."""
    f = _exp_ramp(x)
    g = _exp_ramp(1.0 - np.asarray(x, dtype=float))
    return f / (f + g)


def smooth_step_prime(x):
    x = np.asarray(x, dtype=float)
    f = _exp_ramp(x)
    g = _exp_ramp(1.0 - x)
    fp = _exp_ramp_prime(x)
    gp = _exp_ramp_prime(1.0 - x)
    return (fp * g + f * gp) / (f + g) ** 2


# ---------------------------------------------------------------------------
# bump spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BumpSpec:
    """A bump on the reals with closed-form derivative and its mass.

    ``segments`` lists the breakpoints (support ends plus interior corners)
    so that quadrature panels never straddle a feature of the function.
    Instances produced by :func:`make_eta` have passed the full
    certification sweep; hand-built instances (e.g. the idealized step
    bump) bypass it and are only meant as quadrature oracles.
    """

    eta: Callable
    eta_prime: Callable
    segments: tuple[float, ...]
    mass: float

    def __call__(self, x):
        return self.eta(x)


_gl_rule = functools.cache(np.polynomial.legendre.leggauss)


def _gl(f, a, x, order):
    """Gauss-Legendre integral of f over [a, x], elementwise for arrays a, x."""
    xs, w = _gl_rule(order)
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    half = 0.5 * (x - a)
    nodes = 0.5 * (a + x)[..., None] + half[..., None] * xs
    return half * np.dot(f(nodes), w)


def _segment_quad(f, segments):
    """Integral of f over the union of segments, panels aligned to breakpoints."""
    total = 0.0
    for a, b in zip(segments[:-1], segments[1:]):
        edges = np.linspace(a, b, _SEGMENT_PANELS + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            total += _gl(f, lo, hi, _SEGMENT_ORDER)
    return total


def make_eta(plateau=(1.0 / 16.0, 3.0 / 16.0), ceiling=64.0, mass=4.0,
             floor=16.0) -> BumpSpec:
    """Build and certify the C-infinity plateau bump.

    The bump rises from 0 over [0, plateau[0]] by a smooth step, holds a
    constant amplitude on the plateau, and falls back to 0 over
    [plateau[1], 1/4].  The amplitude is set so the total mass hits
    the requested value; infeasible combinations (amplitude above the
    ceiling or below the floor) raise :class:`ConstructionError` reporting
    the achievable mass.
    """
    lo, hi = _SUPPORT
    p0, p1 = plateau
    if not (lo < p0 < p1 < hi):
        raise ValueError("plateau must sit strictly inside the support")
    w_up = p0 - lo
    w_down = hi - p1

    def unit(x):
        x = np.asarray(x, dtype=float)
        return smooth_step((x - lo) / w_up) * smooth_step((hi - x) / w_down)

    def unit_prime(x):
        x = np.asarray(x, dtype=float)
        up = smooth_step((x - lo) / w_up)
        down = smooth_step((hi - x) / w_down)
        up_p = smooth_step_prime((x - lo) / w_up) / w_up
        down_p = -smooth_step_prime((hi - x) / w_down) / w_down
        return up_p * down + up * down_p

    segments = (lo, p0, p1, hi)
    unit_mass = _segment_quad(unit, segments)
    amplitude = mass / unit_mass
    if amplitude > ceiling:
        raise ConstructionError(
            f"mass constraint infeasible: amplitude {amplitude:.6g} exceeds "
            f"ceiling {ceiling}; achievable mass at ceiling is "
            f"{ceiling * unit_mass:.6g}")
    if amplitude < floor:
        raise ConstructionError(
            f"floor constraint infeasible: mass {mass} only needs amplitude "
            f"{amplitude:.6g} < floor {floor}; achieved mass would violate "
            f"eta >= {floor} on the floor window")

    spec = BumpSpec(eta=lambda x: amplitude * unit(x),
                    eta_prime=lambda x: amplitude * unit_prime(x),
                    segments=segments, mass=amplitude * unit_mass)
    _certify_eta(spec, mass, ceiling, floor)
    return spec


def _certify_eta(spec: BumpSpec, requested_mass: float, ceiling: float,
                 floor: float) -> None:
    lo, hi = _SUPPORT
    xs = np.linspace(lo, hi, _ETA_CHECKS)
    vals = spec.eta(xs)
    if np.any(vals < -1e-12) or np.any(vals > ceiling + 1e-12):
        raise ConstructionError("range claim failed: eta outside [0, ceiling]")
    outside = spec.eta(np.array([lo - 0.05, lo - 1e-9, hi + 1e-9, hi + 0.05]))
    if np.any(np.abs(outside) > 0.0):
        raise ConstructionError("support claim failed: eta != 0 outside support")
    f0, f1 = _FLOOR_WINDOW
    fw = xs[(xs >= f0) & (xs <= f1)]
    if np.any(spec.eta(fw) < floor - 1e-12):
        raise ConstructionError("floor claim failed: eta < floor on floor window")
    t0, t1 = _TAIL_WINDOW
    tw = xs[(xs >= t0) & (xs <= t1)]
    if np.any(spec.eta_prime(tw) > 1e-12):
        raise ConstructionError("tail monotonicity claim failed: eta' > 0 on tail window")
    if abs(spec.mass - requested_mass) > 1e-10:
        raise ConstructionError(
            f"mass claim failed: integral = {spec.mass!r}, requested {requested_mass}")


def idealized_step_bump(amplitude=32.0, window=(1.0 / 16.0, 3.0 / 16.0)) -> BumpSpec:
    """Discontinuous box bump; exact closed-form integrals make it a quadrature oracle.

    Not a valid smooth eta (it is not even continuous); only used to pin
    expected values of the quadrature pipeline.
    """
    a, b = window

    def eta(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= a) & (x <= b), amplitude, 0.0)

    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return BumpSpec(eta=eta, eta_prime=zero,
                    segments=(_SUPPORT[0], a, b, _SUPPORT[1]),
                    mass=amplitude * (b - a))


# ---------------------------------------------------------------------------
# quadrature tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureTable:
    """Cumulative integrals of a bump on a panel grid aligned to its segments.

    ``first_antiderivative[i] = int_0^{grid[i]} eta`` and
    ``second_antiderivative[i] = int_0^{grid[i]} first_antiderivative``.
    Between grid points the remainders are integrated on the fly with the
    same Gauss-Legendre order, so evaluations are spectrally accurate for
    smooth bumps.
    """

    bump: BumpSpec
    grid: np.ndarray
    first_antiderivative: np.ndarray
    second_antiderivative: np.ndarray
    tol: float
    order: int

    @property
    def mass(self) -> float:
        return float(self.first_antiderivative[-1])

    def _locate(self, x):
        """x clipped to the grid and the index of the panel that holds it."""
        xc = np.clip(x, self.grid[0], self.grid[-1])
        idx = np.clip(np.searchsorted(self.grid, xc, side="right") - 1,
                      0, len(self.grid) - 2)
        return xc, idx

    def antiderivative(self, x):
        """E(x) = int_0^x eta, for any real x (vectorized)."""
        x = np.asarray(x, dtype=float)
        xc, idx = self._locate(x)
        base = self.first_antiderivative[idx]
        part = _gl(self.bump.eta, self.grid[idx], xc, self.order)
        out = base + part
        out = np.where(x <= self.grid[0], 0.0, out)
        out = np.where(x >= self.grid[-1], self.mass, out)
        return out if out.ndim else float(out)

    def antiderivative2(self, x):
        """Phi2(x) = int_0^x E, for any real x (vectorized)."""
        x = np.asarray(x, dtype=float)
        xc, idx = self._locate(x)
        a = self.grid[idx]
        base = (self.second_antiderivative[idx]
                + self.first_antiderivative[idx] * (xc - a))
        part = _gl(lambda s: (np.expand_dims(xc, -1) - s) * self.bump.eta(s),
                   a, xc, self.order)
        out = base + part
        lo, hi = self.grid[0], self.grid[-1]
        end = float(self.second_antiderivative[-1])
        out = np.where(x <= lo, 0.0, out)
        out = np.where(x >= hi, end + self.mass * (x - hi), out)
        return out if out.ndim else float(out)


def build_table(bump: BumpSpec, cells_per_segment=24, order=24) -> QuadratureTable:
    """Precompute cumulative integrals of the bump on an aligned panel grid."""
    pieces = [np.linspace(a, b, cells_per_segment + 1)[:-1]
              for a, b in zip(bump.segments[:-1], bump.segments[1:])]
    grid = np.concatenate(pieces + [np.array([bump.segments[-1]])])

    def cumulative(ordr):
        e = np.zeros(len(grid))
        p = np.zeros(len(grid))
        for i in range(len(grid) - 1):
            a, b = grid[i], grid[i + 1]
            e[i + 1] = e[i] + _gl(bump.eta, a, b, ordr)
            p[i + 1] = (p[i] + e[i] * (b - a)
                        + _gl(lambda s: (b - s) * bump.eta(s), a, b, ordr))
        return e, p

    e_hi, p_hi = cumulative(order)
    e_lo, p_lo = cumulative(max(order // 2, 6))
    tol = max(np.max(np.abs(e_hi - e_lo)), np.max(np.abs(p_hi - p_lo)))
    return QuadratureTable(
        bump=bump, grid=grid,
        first_antiderivative=e_hi, second_antiderivative=p_hi,
        tol=tol, order=order,
    )


# ---------------------------------------------------------------------------
# profile components
# ---------------------------------------------------------------------------

def compute_r1(eta: BumpSpec) -> float:
    """The head-length constant ``(1/4) * int (1/4 - s) eta(s) ds``.

    Must land in (0, 1/4) and clear the safe lower bound 1/32; the floor
    constraint actually forces >= 1/16, which the tests record, but only
    the weaker bound is asserted here.
    """
    val = _segment_quad(lambda s: (0.25 - s) * eta.eta(s), eta.segments)
    r1 = 0.25 * val
    if not (0.0 < r1 < 0.25):
        raise ConstructionError(f"invalid bump: r1 = {r1!r} outside (0, 1/4)")
    if r1 < 1.0 / 32.0:
        raise ConstructionError(f"invalid bump: r1 = {r1!r} below 1/32")
    return r1


def make_phi(eta: BumpSpec, r1: float, table: QuadratureTable) -> RadialFunction:
    """The fiber profile ``phi(r) = 4r - int_0^r int_0^{t-r1} eta``.

    Certified claims: slope 4 on [0, r1], slope 0 from 1/4 + r1 on,
    value 1 at 1/4 + r1, phi <= 1 everywhere, phi > 0 for r > 0.
    """
    sup_hi = _SUPPORT[1]

    phi = RadialFunction([
        lambda r: 4.0 * r - table.antiderivative2(r - r1),
        lambda r: 4.0 - table.antiderivative(r - r1),
        lambda r: -eta.eta(r - r1),
        lambda r: -eta.eta_prime(r - r1),
    ])

    head = np.linspace(0.0, r1, _PROFILE_CHECKS)
    if np.max(np.abs(phi(head, 1) - 4.0)) > 1e-12:
        raise ConstructionError("claim failed: phi' = 4 on [0, r1]")
    tail = np.linspace(sup_hi + r1, sup_hi + r1 + 4.0, _PROFILE_CHECKS)
    if np.max(np.abs(phi(tail, 1))) > 1e-10:
        raise ConstructionError("claim failed: phi' = 0 beyond 1/4 + r1")
    if abs(phi(sup_hi + r1) - 1.0) > 1e-10:
        raise ConstructionError(
            f"claim failed: phi(1/4 + r1) = {phi(sup_hi + r1)!r} != 1")
    body = np.linspace(0.0, sup_hi + r1 + 4.0, 4 * _PROFILE_CHECKS)
    if np.max(phi(body)) > 1.0 + 1e-10:
        raise ConstructionError("claim failed: phi exceeds 1")
    interior = body[body > 0]
    if np.min(phi(interior)) <= 0.0:
        raise ConstructionError("claim failed: phi not positive on (0, inf)")
    return phi


def make_rho(eta: BumpSpec, r1: float, neck_slope: float,
             table: QuadratureTable) -> tuple[RadialFunction, float]:
    """The orbit-scale profile rho and its normalizer delta.

    ``rho(r) = 1 + delta * int_0^r int_0^t eta(2s - 1/8 - 2 r1) ds dt`` with
    delta chosen so the tail slope is exactly ``neck_slope``.  The shifted
    bump is supported on [r1 + 1/16, r1 + 3/16], so rho == 1 before that
    window, rho'' >= 0 everywhere and rho' == neck_slope after it.  The
    tail is the cone over (S^3/Q8, c^2 round) with c = ``neck_slope``, a
    cone over a shrunk link only when c < 1.
    """
    if neck_slope <= 0:
        raise ValueError("neck_slope must be positive")
    if neck_slope >= 1:
        raise ConstructionError(
            f"invalid neck slope {neck_slope!r}: the cone over (S^3/Q8, c^2 round) "
            "needs c < 1")
    shift = 0.125 + 2.0 * r1
    # int_0^inf eta(2s - shift) ds = mass / 2, the tail slope per unit delta
    slope_integral = 0.5 * table.mass
    delta = neck_slope / slope_integral

    rho = RadialFunction([
        lambda r: 1.0 + delta * 0.25 * table.antiderivative2(2.0 * r - shift),
        lambda r: delta * 0.5 * table.antiderivative(2.0 * r - shift),
        lambda r: delta * eta.eta(2.0 * r - shift),
        lambda r: 2.0 * delta * eta.eta_prime(2.0 * r - shift),
    ])

    if delta > 32.0 * neck_slope:
        raise ConstructionError(
            f"claim failed: delta = {delta!r} exceeds 32 * neck_slope")
    head = np.linspace(0.0, r1 + 1.0 / 16.0, _PROFILE_CHECKS)
    if np.max(np.abs(rho(head) - 1.0)) > 1e-13:
        raise ConstructionError("claim failed: rho != 1 on [0, r1 + 1/16]")
    tail = np.linspace(r1 + 3.0 / 16.0, r1 + 4.0, _PROFILE_CHECKS)
    if np.max(np.abs(rho(tail, 1) - neck_slope)) > 1e-12 * neck_slope:
        raise ConstructionError("claim failed: rho' != neck_slope on the tail")
    body = np.linspace(0.0, r1 + 4.0, 4 * _PROFILE_CHECKS)
    if np.min(rho(body, 2)) < -1e-15:
        raise ConstructionError("claim failed: rho'' < 0 somewhere")
    return rho, delta


def build_profile(neck_slope: float = REFERENCE_NECK_SLOPE, *, plateau=(1.0 / 16.0, 3.0 / 16.0),
                  ceiling=64.0, mass=4.0, floor=16.0,
                  cells_per_segment=24, order=24) -> ProfilePair:
    """Construct the full certified profile pair for a given neck slope."""
    eta = make_eta(plateau=plateau, ceiling=ceiling, mass=mass, floor=floor)
    table = build_table(eta, cells_per_segment=cells_per_segment, order=order)
    r1 = compute_r1(eta)
    phi = make_phi(eta, r1, table)
    rho, delta = make_rho(eta, r1, neck_slope, table)
    params = {"neck_slope": neck_slope, "plateau": list(plateau),
              "ceiling": ceiling, "mass": mass, "floor": floor,
              "cells_per_segment": cells_per_segment, "order": order}
    return ProfilePair(rho=rho, phi=phi, r1=r1, delta=delta,
                       neck_slope=neck_slope, build_params=params)


# ---------------------------------------------------------------------------
# smoothness certification at the axis
# ---------------------------------------------------------------------------

# finite-difference step of the first-derivative axis checks
_AXIS_STEP = 1e-5


def smoothness_check(profile: ProfilePair) -> VerificationReport:
    """Finite-difference checks of the axis conditions at r = 0.

    Verifies phi(0) = 0, phi'(0) = 4, rho(0) = 1, rho'(0) = 0, rho'''(0) = 0
    and (rho*phi)''(0) = 0.  Failures are reported, never raised.  The
    higher-order stencils widen the step so roundoff stays below the check
    tolerances.
    """
    rho, phi = profile.rho, profile.phi
    h = _AXIS_STEP
    h2 = max(_AXIS_STEP * 10, 1e-4)   # second-derivative stencil
    h3 = max(_AXIS_STEP * 100, 1e-3)  # third-derivative stencil

    def d1(f, h_):
        return (f(h_) - f(-h_)) / (2.0 * h_)

    def d2(f, h_):
        return (f(h_) - 2.0 * f(0.0) + f(-h_)) / h_**2

    def d3(f, h_):
        return (f(2 * h_) - 2 * f(h_) + 2 * f(-h_) - f(-2 * h_)) / (2.0 * h_**3)

    prod = lambda r: rho(r) * phi(r)
    checks = (
        BoundCheck("phi(0)", phi(0.0), 0.0, "match", 1e-12),
        BoundCheck("phi'(0)", d1(phi, h), 4.0, "match", 1e-8),
        BoundCheck("rho(0)", rho(0.0), 1.0, "match", 1e-12),
        BoundCheck("rho'(0)", d1(rho, h), 0.0, "match", 1e-8),
        BoundCheck("rho'''(0)", d3(rho, h3), 0.0, "match", 1e-5),
        BoundCheck("(rho*phi)''(0)", d2(prod, h2), 0.0, "match", 1e-6),
    )
    return VerificationReport(label="axis smoothness", grid_size=5,
                              tol=_AXIS_STEP, checks=checks)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_FORMAT = "conekit-profile"
_VERSION = 1
_SAMPLES = 33  # (rho, phi) samples stored on [0, r1 + 1]


def save_profile(profile: ProfilePair, path: str) -> None:
    """Write a versioned JSON document from which the profile can be rebuilt.

    Stores the construction parameters plus a sample grid of (rho, phi)
    values; :func:`load_profile` rebuilds from the parameters and verifies
    the samples, so a stale or edited file is rejected rather than trusted.
    """
    if profile.build_params is None:
        raise ValueError("only constructed profiles are serializable")
    rs = np.linspace(0.0, profile.r1 + 1.0, _SAMPLES)
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "neck_slope": profile.neck_slope,
        "r1": profile.r1,
        "delta": profile.delta,
        "construction": profile.build_params,
        "grid": rs.tolist(),
        "rho": profile.rho(rs).tolist(),
        "phi": profile.phi(rs).tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


_DOC_KEYS = ("r1", "delta", "construction", "grid", "rho", "phi")
# build_profile's keyword defaults give the shape and kind of each construction value
_CONSTRUCTION = {name: np.asarray(p.default)
                 for name, p in inspect.signature(build_profile).parameters.items()}


def _numeric(key: str, value, shape=(), kinds: str = "iuf") -> np.ndarray:
    """``value`` as an array; ``ValueError`` naming ``key`` unless its numbers fit ``shape``.

    ``shape`` None accepts any one-dimensional list; ``kinds`` are numpy dtype kinds.
    """
    arr = np.asarray(value)  # a ragged list raises ValueError here
    if (arr.dtype.kind not in kinds
            or (arr.ndim != 1 if shape is None else arr.shape != shape)):
        raise ValueError(f"profile key {key!r} is not numeric of the right shape: {value!r}")
    return arr


def load_profile(path: str) -> ProfilePair:
    """Rebuild a profile from its JSON document and verify the stored samples.

    Raises ``ValueError`` for a document of unrecognized format or version,
    with a missing key, a construction key :func:`build_profile` does not
    record, or a non-numeric value, and :class:`ConstructionError` when the
    stored samples or constants disagree with the rebuilt profile.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if (not isinstance(doc, dict) or doc.get("format") != _FORMAT
            or doc.get("version") != _VERSION):
        raise ValueError(f"unrecognized profile document in {path}")
    missing = [key for key in _DOC_KEYS if key not in doc]
    if missing:
        raise ValueError(f"profile document {path} lacks key(s) {', '.join(missing)}")
    params = doc["construction"]
    if not isinstance(params, dict):
        raise ValueError(f"profile key 'construction' is not an object: {params!r}")
    wrong = sorted(params.keys() ^ _CONSTRUCTION.keys())
    if wrong:
        raise ValueError(f"profile construction keys {wrong} differ from "
                         f"{sorted(_CONSTRUCTION)}")
    for key, default in _CONSTRUCTION.items():
        _numeric(f"construction.{key}", params[key], default.shape,
                 "iu" if default.dtype.kind == "i" else "iuf")
    r1, delta = (float(_numeric(key, doc[key])) for key in ("r1", "delta"))
    params = dict(params, plateau=tuple(params["plateau"]))
    profile = build_profile(**params)
    rs = _numeric("grid", doc["grid"], None).astype(float)
    for key, fn in (("rho", profile.rho), ("phi", profile.phi)):
        stored = _numeric(key, doc[key], rs.shape).astype(float)
        if np.max(np.abs(fn(rs) - stored)) > 1e-9:
            raise ConstructionError(
                f"stored {key} samples disagree with the rebuilt profile")
    if abs(profile.r1 - r1) > 1e-12 or abs(profile.delta - delta) > 1e-12 * abs(delta):
        raise ConstructionError("stored constants disagree with the rebuilt profile")
    return profile
