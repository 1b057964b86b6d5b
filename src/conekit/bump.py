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
come from the closed-form ``eta'``.  Every quadrature sums each point's
nodes on its own, so a radius gets the same bits in any batch and under
any BLAS kernel.

The pieces of the construction meet at the radii :func:`breakpoints`
returns, ``r1 + 1/16``, ``r1 + 3/16`` and ``r1 + 1/4``: the ends of rho's
bump window, which is also the plateau of phi's bump, and the start of
the conical tail.  It is their one declaration: the profiles' claims,
``verify``'s regions and the collapse experiment's tail all read it.

Every property claimed of the construction is certified on a grid at build
time by the verifier's rule, :meth:`BoundCheck.sampled`, so a NaN sample
fails it; a failed claim raises :class:`ConstructionError` naming the
claim, its measured value and its bound.  :func:`load_profile` checks a
stored document against its rebuild by the same rule.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .profiles import ProfilePair, RadialFunction
from .reports import BoundCheck, ConstructionError, VerificationReport

__all__ = [
    "ConstructionError",
    "BumpSpec",
    "QuadratureTable",
    "make_eta",
    "build_table",
    "compute_r1",
    "breakpoints",
    "make_phi",
    "make_rho",
    "build_profile",
    "smoothness_check",
    "save_profile",
    "load_profile",
]

REFERENCE_NECK_SLOPE = math.exp(-100.0)
# the one bump: 0 <= eta <= CEILING, eta >= FLOOR on PLATEAU, mass MASS (forced by
# phi' = 4, certified by make_phi); its quadrature table's panels per segment and order
PLATEAU = (1.0 / 16.0, 3.0 / 16.0)
CEILING = 64.0
MASS = 4.0
FLOOR = 16.0
CELLS_PER_SEGMENT = 24
ORDER = 24
# profile.json's construction block after its neck_slope, in file order
_CONSTRUCTION = {"plateau": list(PLATEAU), "ceiling": CEILING, "mass": MASS,
                 "floor": FLOOR, "cells_per_segment": CELLS_PER_SEGMENT, "order": ORDER}
_SUPPORT = (0.0, 0.25)
# where eta is claimed to be non-increasing
_TAIL_WINDOW = (0.125, 0.25)
# grid sizes of the certification sweeps: the bump over its support, the
# profiles over each claimed interval
_ETA_CHECKS = 4001
_PROFILE_CHECKS = 513
# Gauss-Legendre order and panels per segment of the one-off bump integrals
_SEGMENT_ORDER = 24
_SEGMENT_PANELS = 8


# ---------------------------------------------------------------------------
# C-infinity smoothstep
# ---------------------------------------------------------------------------

def _exp_ramp(x):
    """exp(-1/x) for x > 0, identically 0 for x <= 0 (all derivatives vanish at 0).

    NaN stays NaN, so ``smooth_step`` of NaN is NaN/NaN, which numpy does
    not warn about, and not 0/0, which it does.
    """
    x = np.asarray(x, dtype=float)
    out = np.where(np.isnan(x), x, 0.0)
    pos = x > 1e-150  # below this exp(-1/x) underflows to 0 anyway
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def _exp_ramp_prime(x):
    x = np.asarray(x, dtype=float)
    return _exp_ramp(x) / np.where(x > 1e-150, x, 1.0) ** 2


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
    """A bump on the reals with its closed-form derivative.

    ``segments`` lists the breakpoints (support ends plus interior corners)
    so that quadrature panels never straddle a feature of the function.
    Instances produced by :func:`make_eta` have passed the full
    certification sweep; hand-built instances bypass it.
    """

    eta: Callable
    eta_prime: Callable
    segments: tuple[float, ...]


_gl_rule = functools.cache(np.polynomial.legendre.leggauss)


def _gl(f, a, x, order):
    """Gauss-Legendre integral of f over [a, x], elementwise for arrays a, x.

    Each point's weighted nodes are summed on their own (a numpy reduction
    over the last axis, not a BLAS product), so a point's value does not
    depend on the batch it is evaluated in or on the machine's BLAS kernel.
    """
    xs, w = _gl_rule(order)
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    half = 0.5 * (x - a)
    nodes = 0.5 * (a + x)[..., None] + half[..., None] * xs
    return half * (f(nodes) * w).sum(-1)


def _panel_edges(segments, per_segment):
    """Edges of ``per_segment`` equal panels per segment, aligned to the breakpoints."""
    pieces = [np.linspace(a, b, per_segment + 1)[:-1]
              for a, b in zip(segments[:-1], segments[1:])]
    return np.concatenate(pieces + [np.array([segments[-1]])])


def _segment_quad(f, segments):
    """Integral of f over the union of segments, panels aligned to breakpoints."""
    edges = _panel_edges(segments, _SEGMENT_PANELS)
    # a running total in panel order; np.sum would add pairwise, rounding otherwise
    return np.cumsum(_gl(f, edges[:-1], edges[1:], _SEGMENT_ORDER))[-1]


def make_eta() -> BumpSpec:
    """Build and certify the C-infinity plateau bump of the module constants.

    The bump rises from 0 over [0, 1/16] by a smooth step, holds a constant
    amplitude on ``PLATEAU`` and falls back to 0 over [3/16, 1/4]; the
    amplitude sets the mass to ``MASS``, certified by :func:`make_phi`.  A failed
    range, support, floor or tail claim raises :class:`ConstructionError`.
    """
    lo, hi = _SUPPORT
    p0, p1 = PLATEAU
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
    amplitude = MASS / _segment_quad(unit, segments)
    spec = BumpSpec(eta=lambda x: amplitude * unit(x),
                    eta_prime=lambda x: amplitude * unit_prime(x),
                    segments=segments)
    _certify_eta(spec)
    return spec


def _claim(name: str, samples, bound: float, *, kind: str = "min_ge", tol: float) -> None:
    """Certify the claim ``name``: its samples (an array or a scalar) against
    ``bound`` as :meth:`BoundCheck.sampled` checks them.  A failed claim
    raises :class:`ConstructionError` naming it, its measured value and its bound."""
    check = BoundCheck.sampled(name, np.asarray(samples), bound, kind=kind, tol=tol)
    if not check.passed:
        raise ConstructionError(f"claim failed: {name} (measured {check.value:.12g}, "
                                f"bound {bound:.12g}, tol {tol:g})")


def _certify_eta(spec: BumpSpec) -> None:
    lo, hi = _SUPPORT
    xs = np.linspace(lo, hi, _ETA_CHECKS)
    vals = spec.eta(xs)
    _claim("range: eta >= 0", vals, 0.0, tol=1e-12)
    _claim("range: eta <= ceiling", vals, CEILING, kind="max_le", tol=1e-12)
    _claim("support: eta = 0 outside its support",
           spec.eta(np.array([lo - 0.05, lo - 1e-9, hi + 1e-9, hi + 0.05])), 0.0,
           kind="match", tol=0.0)
    p0, p1 = PLATEAU
    _claim("floor: eta >= floor on the plateau", vals[(xs >= p0) & (xs <= p1)], FLOOR,
           tol=1e-12)
    t0, t1 = _TAIL_WINDOW
    _claim("tail monotonicity: eta' <= 0 on the tail window",
           spec.eta_prime(xs[(xs >= t0) & (xs <= t1)]), 0.0, kind="max_le", tol=1e-12)


# ---------------------------------------------------------------------------
# quadrature tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureTable:
    """Cumulative integrals of a bump on a panel grid aligned to its segments.

    ``first_antiderivative[i] = int_0^{grid[i]} eta`` and
    ``second_antiderivative[i] = int_0^{grid[i]} first_antiderivative``.
    Between grid points the remainders are integrated on the fly at
    Gauss-Legendre ``ORDER``, so evaluations are spectrally accurate for
    smooth bumps.  Only points strictly inside the grid need a remainder,
    and each point's value is independent of the batch it is evaluated in.
    """

    bump: BumpSpec
    grid: np.ndarray
    first_antiderivative: np.ndarray
    second_antiderivative: np.ndarray

    @property
    def mass(self) -> float:
        return float(self.first_antiderivative[-1])

    def _partial_panels(self, x):
        """Where x lies strictly inside the grid (or is NaN), the points whose
        value needs a partial panel, and the panel that holds each of them."""
        inside = ~((x <= self.grid[0]) | (x >= self.grid[-1]))
        return inside, np.searchsorted(self.grid, x[inside], side="right") - 1

    def antiderivative(self, x):
        """E(x) = int_0^x eta, for any real x (vectorized)."""
        x = np.asarray(x, dtype=float)
        out = np.where(x >= self.grid[-1], self.mass, 0.0)
        inside, idx = self._partial_panels(x)
        out[inside] = self.first_antiderivative[idx] + _gl(
            self.bump.eta, self.grid[idx], x[inside], ORDER)
        return out if out.ndim else float(out)

    def antiderivative2(self, x):
        """Phi2(x) = int_0^x E, for any real x (vectorized)."""
        x = np.asarray(x, dtype=float)
        hi = self.grid[-1]
        end = float(self.second_antiderivative[-1])
        out = np.where(x >= hi, end + self.mass * (x - hi), 0.0)
        inside, idx = self._partial_panels(x)
        a, top = self.grid[idx], x[inside]  # each partial panel is [a, top]
        out[inside] = (self.second_antiderivative[idx] + self.first_antiderivative[idx] * (top - a)
                       + _gl(lambda s: (top[:, None] - s) * self.bump.eta(s), a, top, ORDER))
        return out if out.ndim else float(out)


def _cumulative(bump: BumpSpec, grid: np.ndarray, order: int):
    """E and Phi2 at each grid point, by Gauss-Legendre ``order`` on each panel.

    Both are running totals in panel order: E adds each panel's integral,
    and Phi2 adds first E times the panel's width, then the panel's moment.
    """
    a, b = grid[:-1], grid[1:]
    cells = _gl(bump.eta, a, b, order)
    moments = _gl(lambda s: (b[:, None] - s) * bump.eta(s), a, b, order)
    e = np.concatenate([[0.0], np.cumsum(cells)])
    steps = np.column_stack([e[:-1] * (b - a), moments]).ravel()
    return e, np.concatenate([[0.0], np.cumsum(steps)[1::2]])


def build_table(bump: BumpSpec) -> QuadratureTable:
    """Cumulative integrals of the bump on ``CELLS_PER_SEGMENT`` panels a segment.

    Certified claim: Gauss-Legendre ``ORDER`` and ``ORDER // 2`` agree to
    1e-12 on both cumulative integrals, which fails when the bump is not
    smooth inside a panel.
    """
    grid = _panel_edges(bump.segments, CELLS_PER_SEGMENT)
    e_hi, p_hi = _cumulative(bump, grid, ORDER)
    e_lo, p_lo = _cumulative(bump, grid, ORDER // 2)
    _claim(f"quadrature orders {ORDER} and {ORDER // 2} differ by at most tol",
           np.concatenate([e_hi - e_lo, p_hi - p_lo]), 0.0, kind="match", tol=1e-12)
    return QuadratureTable(bump=bump, grid=grid, first_antiderivative=e_hi,
                           second_antiderivative=p_hi)


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
    if not (0.0 < r1 < 0.25):  # strict, and NaN fails too
        raise ConstructionError(f"invalid bump: r1 = {float(r1)} outside (0, 1/4)")
    _claim("r1 >= 1/32", r1, 1.0 / 32.0, tol=0.0)
    return r1


def breakpoints(r1):
    """The radii where the construction's pieces meet, for head length ``r1``:
    ``r1 + PLATEAU``, the window of rho's bump and the plateau of phi's,
    and ``r1 + 1/4``, where phi's bump ends and the conical tail starts."""
    return r1 + PLATEAU[0], r1 + PLATEAU[1], r1 + _SUPPORT[1]


def make_phi(eta: BumpSpec, r1: float, table: QuadratureTable) -> RadialFunction:
    """The fiber profile ``phi(r) = 4r - int_0^r int_0^{t-r1} eta``.

    Certified claims: slope 4 on [0, r1], slope 0 from the tail start
    1/4 + r1 of :func:`breakpoints` on, value 1 there, phi <= 1 everywhere,
    phi > 0 for r > 0.  On the tail phi' is 4 minus the table's mass, so
    the slope-0 claim is the mass claim: the bump's mass is ``MASS`` to 1e-10.
    """
    tail_start = breakpoints(r1)[2]

    phi = RadialFunction([
        lambda r: 4.0 * r - table.antiderivative2(r - r1),
        lambda r: 4.0 - table.antiderivative(r - r1),
        lambda r: -eta.eta(r - r1),
        lambda r: -eta.eta_prime(r - r1),
    ])

    head = np.linspace(0.0, r1, _PROFILE_CHECKS)
    _claim("phi' = 4 on [0, r1]", phi(head, 1) - 4.0, 0.0, kind="match", tol=1e-12)
    tail = np.linspace(tail_start, tail_start + 4.0, _PROFILE_CHECKS)
    _claim("phi' = 0 beyond 1/4 + r1", phi(tail, 1), 0.0, kind="match", tol=1e-10)
    _claim("phi(1/4 + r1) = 1", phi(tail_start) - 1.0, 0.0, kind="match", tol=1e-10)
    body = np.linspace(0.0, tail_start + 4.0, 4 * _PROFILE_CHECKS)
    values = phi(body)
    _claim("phi <= 1", values, 1.0, kind="max_le", tol=1e-10)
    if not np.min(values[body > 0]) > 0.0:  # strict, and NaN fails too
        raise ConstructionError("claim failed: phi not positive on (0, inf)")
    return phi


def make_rho(eta: BumpSpec, r1: float, neck_slope: float,
             table: QuadratureTable) -> tuple[RadialFunction, float]:
    """The orbit-scale profile rho and its normalizer delta.

    ``rho(r) = 1 + delta * int_0^r int_0^t eta(2s - 1/8 - 2 r1) ds dt`` with
    delta chosen so the tail slope is exactly ``neck_slope``.  The shifted
    bump is supported on the window [r1 + 1/16, r1 + 3/16] of
    :func:`breakpoints`, so rho == 1 before it, rho'' >= 0 everywhere and
    rho' == neck_slope after it.  The tail is the cone over
    (S^3/Q8, c^2 round) with c = ``neck_slope``, a cone over a shrunk link
    only when c < 1.
    """
    if not 0 < neck_slope:  # NaN fails too
        raise ValueError("neck_slope must be positive")
    if neck_slope >= 1:
        raise ConstructionError(
            f"invalid neck slope {neck_slope!r}: the cone over (S^3/Q8, c^2 round) "
            "needs c < 1")
    window = breakpoints(r1)[:2]
    shift = 2.0 * window[0]  # 1/8 + 2*r1, as 2*(r1 + 1/16) rounds to the same bits
    # int_0^inf eta(2s - shift) ds = mass / 2, the tail slope per unit delta
    slope_integral = 0.5 * table.mass
    delta = neck_slope / slope_integral

    rho = RadialFunction([
        lambda r: 1.0 + delta * 0.25 * table.antiderivative2(2.0 * r - shift),
        lambda r: delta * 0.5 * table.antiderivative(2.0 * r - shift),
        lambda r: delta * eta.eta(2.0 * r - shift),
        lambda r: 2.0 * delta * eta.eta_prime(2.0 * r - shift),
    ])

    _claim("delta <= 32 * neck_slope", delta, 32.0 * neck_slope, kind="max_le", tol=0.0)
    head = np.linspace(0.0, window[0], _PROFILE_CHECKS)
    _claim("rho = 1 on [0, r1 + 1/16]", rho(head) - 1.0, 0.0, kind="match", tol=1e-13)
    tail = np.linspace(window[1], r1 + 4.0, _PROFILE_CHECKS)
    _claim("rho' = neck_slope on the tail", rho(tail, 1) - neck_slope, 0.0,
           kind="match", tol=1e-12 * neck_slope)
    body = np.linspace(0.0, r1 + 4.0, 4 * _PROFILE_CHECKS)
    _claim("rho'' >= 0", rho(body, 2), 0.0, tol=1e-15)
    return rho, delta


def build_profile(neck_slope: float = REFERENCE_NECK_SLOPE) -> ProfilePair:
    """Construct the certified profile pair; the neck slope is its one free value."""
    eta = make_eta()
    table = build_table(eta)
    r1 = compute_r1(eta)
    phi = make_phi(eta, r1, table)
    rho, delta = make_rho(eta, r1, neck_slope, table)
    return ProfilePair(rho=rho, phi=phi, r1=r1, delta=delta, neck_slope=neck_slope)


# ---------------------------------------------------------------------------
# smoothness certification at the axis
# ---------------------------------------------------------------------------

# finite-difference step of the first-derivative axis checks
_AXIS_STEP = 1e-5


def smoothness_check(profile: ProfilePair) -> VerificationReport:
    """Finite-difference checks of the axis conditions at r = 0.

    Verifies phi(0) = 0, phi'(0) = 4, rho(0) = 1, rho'(0) = 0, rho'''(0) = 0
    and (rho*phi)''(0) = 0.  Failures are reported, never raised.  The
    higher-order stencils widen the step, to 1e-4 and 1e-3, so roundoff
    stays below the check tolerances.
    """
    rho, phi = profile.rho, profile.phi
    h = _AXIS_STEP

    def d1(f, h_):
        return (f(h_) - f(-h_)) / (2.0 * h_)

    def d2(f, h_):
        return (f(h_) - 2.0 * f(0.0) + f(-h_)) / h_**2

    def d3(f, h_):
        return (f(2 * h_) - 2 * f(h_) + 2 * f(-h_) - f(-2 * h_)) / (2.0 * h_**3)

    prod = lambda r: rho(r) * phi(r)
    checks = (
        BoundCheck("phi(0)", phi(0.0), 0.0, kind="match", tol=1e-12),
        BoundCheck("phi'(0)", d1(phi, h), 4.0, kind="match", tol=1e-8),
        BoundCheck("rho(0)", rho(0.0), 1.0, kind="match", tol=1e-12),
        BoundCheck("rho'(0)", d1(rho, h), 0.0, kind="match", tol=1e-8),
        BoundCheck("rho'''(0)", d3(rho, 1e-3), 0.0, kind="match", tol=1e-5),
        BoundCheck("(rho*phi)''(0)", d2(prod, 1e-4), 0.0, kind="match", tol=1e-6),
    )
    return VerificationReport(label="axis smoothness", grid_size=5, checks=checks)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_FORMAT = "conekit-profile"
_VERSION = 1
_SAMPLES = 33  # (rho, phi) samples stored on [0, r1 + 1]


def save_profile(profile: ProfilePair, path: str) -> None:
    """Write a versioned JSON document from which the profile can be rebuilt.

    Stores the neck slope, the construction constants and a sample grid of
    (rho, phi); :func:`load_profile` rebuilds from the neck slope and checks
    the samples, so a stale or edited file is rejected rather than trusted.
    """
    if profile.r1 is None:
        raise ValueError("only constructed profiles are serializable")
    rs = np.linspace(0.0, profile.r1 + 1.0, _SAMPLES)
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "neck_slope": profile.neck_slope,
        "r1": profile.r1,
        "delta": profile.delta,
        "construction": {"neck_slope": profile.neck_slope, **_CONSTRUCTION},
        "grid": rs.tolist(),
        "rho": profile.rho(rs).tolist(),
        "phi": profile.phi(rs).tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# the keys save_profile writes
_DOC_KEYS = ("format", "version", "neck_slope", "r1", "delta", "construction",
             "grid", "rho", "phi")


def _numeric(key: str, value, shape=()) -> np.ndarray:
    """``value`` as an array; ``ValueError`` naming ``key`` unless its numbers fit ``shape``.

    ``shape`` None accepts any one-dimensional list.
    """
    arr = np.asarray(value)  # a ragged list raises ValueError here
    if (arr.dtype.kind not in "iuf"
            or (arr.ndim != 1 if shape is None else arr.shape != shape)):
        raise ValueError(f"profile key {key!r} is not numeric of the right shape: {value!r}")
    return arr


def load_profile(path: str) -> ProfilePair:
    """Rebuild a profile from its JSON document and verify the stored samples.

    Raises ``ValueError`` for a document of unrecognized format or version,
    with a missing or extra key, a construction key or constant other than
    those :func:`save_profile` writes, or a non-numeric value, and
    :class:`ConstructionError` when the stored grid, samples (compared on
    the rebuilt grid) or constants (the top-level neck slope against the
    construction's among them) disagree with the rebuilt profile.  Each
    quantity is a claim certified by :func:`_claim`, the build's rule, so
    NaN fails it; only a grid of another length is refused before.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if (not isinstance(doc, dict) or doc.get("format") != _FORMAT
            or doc.get("version") != _VERSION):
        raise ValueError(f"unrecognized profile document in {path}")
    wrong = sorted(doc.keys() ^ set(_DOC_KEYS))
    if wrong:
        raise ValueError(f"profile document {path} keys {wrong} differ from {sorted(_DOC_KEYS)}")
    params = doc["construction"]
    if not isinstance(params, dict):
        raise ValueError(f"profile key 'construction' is not an object: {params!r}")
    expected = {"neck_slope", *_CONSTRUCTION}
    wrong = sorted(params.keys() ^ expected)
    if wrong:
        raise ValueError(f"profile construction keys {wrong} differ from {sorted(expected)}")
    for key, value in _CONSTRUCTION.items():
        if params[key] != value:
            raise ValueError(f"profile key 'construction.{key}' is {params[key]!r}, not {value!r}")
    neck_slope = float(_numeric("construction.neck_slope", params["neck_slope"]))
    constants = {key: float(_numeric(key, doc[key])) for key in ("neck_slope", "r1", "delta")}
    profile = build_profile(neck_slope)
    grid = np.linspace(0.0, profile.r1 + 1.0, _SAMPLES)
    stored = _numeric("grid", doc["grid"], None).astype(float)
    if stored.shape != grid.shape:
        raise ConstructionError(f"claim failed: stored grid size {stored.size} != {_SAMPLES}")
    _claim("stored grid = rebuilt grid", grid - stored, 0.0, kind="match", tol=1e-12)
    for key, fn in (("rho", profile.rho), ("phi", profile.phi)):
        stored = _numeric(key, doc[key], grid.shape).astype(float)
        _claim(f"stored {key} = rebuilt {key}", fn(grid) - stored, 0.0, kind="match", tol=1e-9)
    # the rebuilt neck slope is the construction block's, which the build read
    for key, tol in (("neck_slope", 0.0), ("r1", 1e-12), ("delta", 1e-12 * abs(profile.delta))):
        _claim(f"stored {key} = rebuilt {key}", getattr(profile, key) - constants[key], 0.0,
               kind="match", tol=tol)
    return profile
